#include "stc/serve/dispatch.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <string_view>
#include <utility>

#include "stc/serve/span_codec.h"
#include "stc/support/error.h"
#include "stc/wire/frame.h"

namespace stc::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

constexpr std::ptrdiff_t kNoItem = -1;

struct WorkerState {
    /// Draining: sent Shutdown, reading tail telemetry until EOF.
    enum class Phase { Handshaking, Ready, Draining, Dead };

    Endpoint endpoint;
    Fd fd;
    wire::Decoder decoder;
    Phase phase = Phase::Dead;
    /// Assigned positions in the caller's `items` vector.  Positions,
    /// not WorkItem::index: under `--resume` the caller ships only the
    /// pending subset, so items[pos].index need not equal pos.  The
    /// item's global index travels on the wire and in telemetry.
    std::deque<std::size_t> queue;
    std::ptrdiff_t in_flight = kNoItem;  ///< position of the item sent, or -1
    Clock::time_point last_heard;
    bool ping_outstanding = false;
    /// Trace-clock time the in-flight Work was sent (the synthetic
    /// item-dispatch span's start).
    std::uint64_t sent_us = 0;
};

}  // namespace

Coordinator::Coordinator(DispatchOptions options)
    : options_(std::move(options)) {
    if (options_.workers.empty()) {
        throw Error("dispatch needs at least one worker endpoint");
    }
}

DispatchStats Coordinator::run(const std::vector<campaign::WorkItem>& items,
                               const ResultHandler& on_result) {
    // A worker SIGKILLed mid-stream must surface as EPIPE on our next
    // write, not as a SIGPIPE death of the coordinator.
    ::signal(SIGPIPE, SIG_IGN);
    const auto t0 = Clock::now();
    obs::Tracer& tracer = options_.obs.tracer;
    if (tracer.enabled() && tracer.trace_id() == 0) {
        // Mint the campaign-wide trace id from the fingerprint, so the
        // same campaign always produces the same id (and reruns of a
        // different campaign a different one).  Workers stamp it into
        // their streamed trace files via Hello's "trace" field.
        std::uint64_t id = 0;
        for (const unsigned char c : options_.expected_fingerprint) {
            id = obs::mix64(id ^ c);
        }
        tracer.set_trace_id(id != 0 ? id : 1);
    }
    const bool tracing = tracer.enabled();
    const obs::SpanScope span(tracer, "phase", "dispatch");
    // Per-item span id, minted by the coordinator and carried in the
    // Work frame's "parent": the worker's work-item span parents on it,
    // and the coordinator's synthetic item-dispatch span *is* it, which
    // is what links dispatch -> wire -> evaluation in the merged trace.
    auto item_span_id = [&](std::size_t pos) {
        return obs::mix64(
            tracer.trace_id() ^
            obs::mix64(static_cast<std::uint64_t>(items[pos].index) + 1));
    };

    DispatchStats stats;
    stats.workers = options_.workers.size();

    auto emit = [&](const obs::JsonObject& event) {
        if (options_.telemetry) options_.telemetry(event);
    };
    // A Telemetry frame carries one or more newline-joined worker-
    // streamed spans or JSONL events; each folds into the coordinator's
    // own instruments.  Never fatal:
    // a malformed payload is dropped, not a protocol error — telemetry
    // must not be able to kill a campaign.
    auto handle_telemetry_line = [&](std::string_view line) {
        // Canonical span lines (the overwhelming majority of streamed
        // telemetry) skip the generic JSON round-trip; anything the
        // strict scanner rejects falls through to the generic path.
        if (is_span_line(line)) {
            if (!tracing) return;
            if (auto fast = parse_span_line(line)) {
                tracer.absorb(std::move(*fast));
                return;
            }
        }
        const auto body = obs::JsonObject::parse(line);
        if (!body) return;
        const std::string kind = body->get_string("kind").value_or("");
        if (kind == "span") {
            if (!tracing) return;
            if (auto event = obs::trace_event_from_json(*body)) {
                tracer.absorb(std::move(*event));
            }
        } else if (kind == "event") {
            const auto data = body->get_string("data");
            if (!data) return;
            if (const auto event = obs::JsonObject::parse(*data)) emit(*event);
        }
    };
    auto handle_telemetry = [&](const std::string& payload) {
        std::size_t start = 0;
        while (start < payload.size()) {
            std::size_t end = payload.find('\n', start);
            if (end == std::string::npos) end = payload.size();
            if (end > start) {
                handle_telemetry_line(
                    std::string_view(payload).substr(start, end - start));
            }
            start = end + 1;
        }
    };

    std::vector<WorkerState> workers(options_.workers.size());
    std::vector<bool> completed(items.size(), false);
    std::size_t remaining = items.size();
    std::size_t redispatch_cursor = 0;
    std::uint64_t ping_nonce = 0;

    auto live_count = [&] {
        std::size_t n = 0;
        for (const WorkerState& w : workers) {
            if (w.phase != WorkerState::Phase::Dead) ++n;
        }
        return n;
    };

    // Queue item `pos` on the next live worker after the cursor,
    // round-robin, taking it from worker `from`.  The items list and
    // partition are deterministic; only this fault path depends on
    // runtime behavior, and item results are schedule-independent, so
    // the merged fates are unchanged by who re-executes what.
    auto reassign = [&](std::size_t pos, std::size_t from) {
        std::size_t target = redispatch_cursor;
        do {
            target = (target + 1) % workers.size();
        } while (workers[target].phase == WorkerState::Phase::Dead);
        redispatch_cursor = target;
        workers[target].queue.push_back(pos);
        ++stats.redispatched;
        emit(obs::JsonObject()
                 .set("event", "worker-redispatch")
                 .set("item", static_cast<std::uint64_t>(items[pos].index))
                 .set("mutant", items[pos].mutant_id)
                 .set("from", static_cast<std::uint64_t>(from))
                 .set("to", static_cast<std::uint64_t>(target)));
    };

    // Declare worker `w` dead and move its unfinished items to the
    // survivors.  A draining worker's end (EOF, error) is the orderly
    // close of its session, not a disconnect.
    auto fail_worker = [&](std::size_t w, const std::string& reason) {
        WorkerState& state = workers[w];
        if (state.phase == WorkerState::Phase::Dead) return;
        const bool orderly = state.phase == WorkerState::Phase::Draining;
        state.phase = WorkerState::Phase::Dead;
        state.fd.close();
        if (orderly) return;
        ++stats.disconnects;
        std::deque<std::size_t> unfinished = std::move(state.queue);
        state.queue.clear();
        if (state.in_flight != kNoItem &&
            !completed[static_cast<std::size_t>(state.in_flight)]) {
            unfinished.push_front(static_cast<std::size_t>(state.in_flight));
        }
        state.in_flight = kNoItem;
        emit(obs::JsonObject()
                 .set("event", "worker-disconnect")
                 .set("worker", static_cast<std::uint64_t>(w))
                 .set("endpoint", state.endpoint.spec)
                 .set("reason", reason)
                 .set("unfinished",
                      static_cast<std::uint64_t>(unfinished.size())));
        if (live_count() == 0) return;
        for (const std::size_t pos : unfinished) reassign(pos, w);
    };

    // Connect and greet every endpoint.  A worker that cannot be
    // reached is a dead worker, not a fatal error — its share moves to
    // the survivors (below), matching the mid-campaign fault path.
    for (std::size_t w = 0; w < workers.size(); ++w) {
        WorkerState& state = workers[w];
        state.endpoint = options_.workers[w];
        state.phase = WorkerState::Phase::Handshaking;
        try {
            state.fd = connect_to(state.endpoint);
        } catch (const Error& e) {
            fail_worker(w, std::string("connect: ") + e.what());
            continue;
        }
        obs::JsonObject hello = options_.hello;
        hello.set("ordinal", static_cast<std::uint64_t>(w));
        hello.set("proto_minor", wire::kProtocolMinor);
        if (tracing) {
            hello.set("trace", obs::hex16(tracer.trace_id()))
                .set("parent", obs::hex16(span.id()))
                .set("now_us", tracer.now_us());
        }
        if (options_.stream_telemetry) {
            hello.set("telemetry_interval_ms",
                      static_cast<std::uint64_t>(
                          std::max(0, options_.telemetry_interval_ms)));
        }
        if (!wire::write_message(state.fd.get(), wire::MessageType::Hello,
                                 hello.to_line())) {
            fail_worker(w, "hello-write-failed");
            continue;
        }
        state.last_heard = Clock::now();
    }
    if (live_count() == 0) {
        throw Error("dispatch: no worker reachable (" +
                    std::to_string(stats.workers) + " configured)");
    }

    // Deterministic partition by content key; shares of unreachable
    // workers go straight through the redispatch path.
    std::vector<std::size_t> orphaned;
    for (std::size_t pos = 0; pos < items.size(); ++pos) {
        const std::size_t shard =
            campaign::shard_of(items[pos].key, workers.size());
        if (workers[shard].phase == WorkerState::Phase::Dead) {
            orphaned.push_back(pos);
        } else {
            workers[shard].queue.push_back(pos);
        }
    }
    for (const std::size_t pos : orphaned) {
        reassign(pos, campaign::shard_of(items[pos].key, workers.size()));
    }

    // Drain one decoded message from worker `w`.  Returns false when the
    // worker was failed.
    auto handle_message = [&](std::size_t w, const wire::Message& message) {
        WorkerState& state = workers[w];
        if (state.phase == WorkerState::Phase::Draining &&
            message.type != wire::MessageType::Telemetry) {
            return true;  // only the tail telemetry matters after Shutdown
        }
        switch (message.type) {
            case wire::MessageType::HelloAck: {
                if (state.phase != WorkerState::Phase::Handshaking) {
                    fail_worker(w, "protocol: unexpected hello-ack");
                    return false;
                }
                const auto ack = obs::JsonObject::parse(message.payload);
                if (!ack) {
                    fail_worker(w, "protocol: unparseable hello-ack");
                    return false;
                }
                if (!ack->get_bool("ok").value_or(false)) {
                    fail_worker(w, "handshake-rejected: " +
                                       ack->get_string("error").value_or("?"));
                    return false;
                }
                const std::string theirs =
                    ack->get_string("fingerprint").value_or("");
                if (!options_.expected_fingerprint.empty() &&
                    theirs != options_.expected_fingerprint) {
                    fail_worker(w, "fingerprint-mismatch: worker " + theirs +
                                       " vs coordinator " +
                                       options_.expected_fingerprint);
                    return false;
                }
                state.phase = WorkerState::Phase::Ready;
                ++stats.workers_connected;
                emit(obs::JsonObject()
                         .set("event", "worker-connect")
                         .set("worker", static_cast<std::uint64_t>(w))
                         .set("endpoint", state.endpoint.spec)
                         .set("fingerprint", theirs)
                         .set("queued",
                              static_cast<std::uint64_t>(state.queue.size())));
                return true;
            }
            case wire::MessageType::Result: {
                if (state.in_flight == kNoItem) {
                    fail_worker(w, "protocol: unsolicited result");
                    return false;
                }
                const auto result = obs::JsonObject::parse(message.payload);
                if (!result) {
                    fail_worker(w, "protocol: unparseable result");
                    return false;
                }
                // The wire carries the item's global index; translate
                // back to the in-flight position in `items`.
                const std::size_t pos =
                    static_cast<std::size_t>(state.in_flight);
                const auto index = result->get_uint("item");
                if (!index ||
                    *index != static_cast<std::uint64_t>(items[pos].index)) {
                    fail_worker(w, "protocol: result for wrong item");
                    return false;
                }
                state.in_flight = kNoItem;
                if (tracing) {
                    // The synthetic item-dispatch span covers the item's
                    // whole round trip on the coordinator's clock; its id
                    // is the minted per-item id the worker's work-item
                    // span named as parent, closing the causal chain.
                    obs::TraceEvent event;
                    event.name = "item-dispatch";
                    event.category = "dispatch";
                    event.ts_us = state.sent_us;
                    const std::uint64_t now_us = tracer.now_us();
                    event.dur_us =
                        now_us > state.sent_us ? now_us - state.sent_us : 0;
                    event.tid = 0;
                    event.actor = tracer.actor();
                    event.span_id = item_span_id(pos);
                    event.parent_id = span.id();
                    event.args =
                        obs::JsonObject()
                            .set("item",
                                 static_cast<std::uint64_t>(items[pos].index))
                            .set("mutant", items[pos].mutant_id)
                            .set("worker", static_cast<std::uint64_t>(w));
                    tracer.absorb(std::move(event));
                }
                if (!completed[pos]) {
                    completed[pos] = true;
                    --remaining;
                    ++stats.executed;
                    obs::JsonObject merged = *result;
                    merged.set("worker", static_cast<std::uint64_t>(w));
                    on_result(items[pos], merged);
                }
                return true;
            }
            case wire::MessageType::Telemetry:
                handle_telemetry(message.payload);
                return true;
            case wire::MessageType::Pong:
                return true;  // silence clock already reset by the read
            case wire::MessageType::Error: {
                const auto error = obs::JsonObject::parse(message.payload);
                fail_worker(
                    w, "peer-error: " +
                           (error ? error->get_string("error").value_or("?")
                                  : std::string("?")));
                return false;
            }
            default:
                fail_worker(w, std::string("protocol: unexpected ") +
                                   wire::to_string(message.type));
                return false;
        }
    };

    // Read what worker `w`'s connection holds and handle every complete
    // message.  EOF, a read error or an undecodable stream fails it.
    auto read_step = [&](std::size_t w) {
        WorkerState& state = workers[w];
        char chunk[4096];
        const ssize_t got = ::read(state.fd.get(), chunk, sizeof chunk);
        if (got < 0 && (errno == EINTR || errno == EAGAIN)) return;
        if (got < 0) {
            fail_worker(w, "read-failed: " + std::string(std::strerror(errno)));
            return;
        }
        if (got == 0) {
            fail_worker(w, state.decoder.pending_bytes() == 0 ? "peer-closed"
                                                              : "torn-frame");
            return;
        }
        state.last_heard = Clock::now();
        state.ping_outstanding = false;
        state.decoder.feed(chunk, static_cast<std::size_t>(got));
        for (;;) {
            wire::Message message;
            const wire::Decoder::Status status = state.decoder.next(&message);
            if (status == wire::Decoder::Status::NeedMore) break;
            if (status != wire::Decoder::Status::Ok) {
                fail_worker(w, std::string("protocol: ") +
                                   wire::to_string(status));
                break;
            }
            if (!handle_message(w, message)) break;
        }
    };

    const int poll_slice_ms =
        std::max(10, std::min(options_.keepalive_ms / 2, 250));
    while (remaining > 0) {
        if (live_count() == 0) {
            throw Error("dispatch: all workers dead with " +
                        std::to_string(remaining) + " items unfinished");
        }

        // Hand every idle ready worker its next item.
        for (std::size_t w = 0; w < workers.size(); ++w) {
            WorkerState& state = workers[w];
            if (state.phase != WorkerState::Phase::Ready ||
                state.in_flight != kNoItem) {
                continue;
            }
            while (!state.queue.empty() && completed[state.queue.front()]) {
                state.queue.pop_front();  // finished elsewhere meanwhile
            }
            if (state.queue.empty()) continue;
            const std::size_t pos = state.queue.front();
            state.queue.pop_front();
            const campaign::WorkItem& item = items[pos];
            obs::JsonObject work =
                obs::JsonObject()
                    .set("item", static_cast<std::uint64_t>(item.index))
                    .set("mutant", item.mutant_id)
                    .set("item_seed", item.item_seed);
            if (tracing) work.set("parent", obs::hex16(item_span_id(pos)));
            if (!wire::write_message(state.fd.get(), wire::MessageType::Work,
                                     work.to_line())) {
                fail_worker(w, "write-failed: " +
                                   std::string(std::strerror(errno)));
                continue;
            }
            state.in_flight = static_cast<std::ptrdiff_t>(pos);
            state.sent_us = tracer.now_us();
            emit(obs::JsonObject()
                     .set("event", "item-start")
                     .set("item", static_cast<std::uint64_t>(item.index))
                     .set("mutant", item.mutant_id)
                     .set("worker", static_cast<std::uint64_t>(w)));
        }

        // Wait for traffic on any live connection.
        std::vector<pollfd> fds;
        std::vector<std::size_t> fd_owner;
        for (std::size_t w = 0; w < workers.size(); ++w) {
            if (workers[w].phase == WorkerState::Phase::Dead) continue;
            fds.push_back(pollfd{workers[w].fd.get(), POLLIN, 0});
            fd_owner.push_back(w);
        }
        const int ready = ::poll(fds.data(), fds.size(), poll_slice_ms);
        if (ready < 0 && errno != EINTR) {
            throw Error("dispatch poll(): " +
                        std::string(std::strerror(errno)));
        }

        for (std::size_t i = 0; ready > 0 && i < fds.size(); ++i) {
            if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
            if (workers[fd_owner[i]].phase == WorkerState::Phase::Dead) continue;
            read_step(fd_owner[i]);
        }

        // Keepalive bookkeeping: probe the quiet, bury the silent.
        const auto now = Clock::now();
        for (std::size_t w = 0; w < workers.size(); ++w) {
            WorkerState& state = workers[w];
            if (state.phase == WorkerState::Phase::Dead) continue;
            const auto silent_ms =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    now - state.last_heard)
                    .count();
            if (silent_ms > options_.dead_after_ms) {
                fail_worker(w, "keepalive-timeout after " +
                                   std::to_string(silent_ms) + "ms");
            } else if (silent_ms > options_.keepalive_ms &&
                       !state.ping_outstanding) {
                const obs::JsonObject ping =
                    obs::JsonObject().set("nonce", ping_nonce++);
                if (!wire::write_message(state.fd.get(),
                                         wire::MessageType::Ping,
                                         ping.to_line())) {
                    fail_worker(w, "ping-write-failed");
                } else {
                    state.ping_outstanding = true;
                }
            }
        }
    }

    // Campaign complete: a polite Shutdown ends each surviving session.
    // The worker flushes its tail telemetry (session-end event, the
    // ended worker-session span, a final metrics snapshot) before
    // closing, so when streaming was requested we keep reading its
    // connection until EOF — bounded, in case the worker wedges.
    const bool draining =
        tracing || options_.stream_telemetry;
    const auto drain_deadline =
        Clock::now() + std::chrono::milliseconds(2000);
    for (std::size_t w = 0; w < workers.size(); ++w) {
        WorkerState& state = workers[w];
        if (state.phase == WorkerState::Phase::Dead) continue;
        (void)wire::write_message(state.fd.get(), wire::MessageType::Shutdown,
                                  "");
        state.phase = WorkerState::Phase::Draining;
        while (draining && state.phase == WorkerState::Phase::Draining &&
               Clock::now() < drain_deadline) {
            pollfd pfd{state.fd.get(), POLLIN, 0};
            const int ready = ::poll(&pfd, 1, 100);
            if (ready < 0 && errno != EINTR) break;
            if (ready > 0) read_step(w);
        }
        fail_worker(w, "shutdown");
    }

    stats.wall_ms = ms_since(t0);
    options_.obs.metrics.observe_ms("dispatch.wall_ms", stats.wall_ms);
    options_.obs.metrics.add("dispatch.executed", stats.executed);
    options_.obs.metrics.add("dispatch.redispatched", stats.redispatched);
    options_.obs.metrics.add("dispatch.disconnects", stats.disconnects);
    return stats;
}

}  // namespace stc::serve
