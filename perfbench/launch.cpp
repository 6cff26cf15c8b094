// launch — runs one command and reports what it used.
//
//     launch FD CMD [ARG...]
//
// Forks CMD, waits for it with wait4, writes "STATUS CPU_S MAXRSS_KB"
// (wait status, user+sys seconds and peak RSS of CMD and every
// descendant it reaped) as one line to file descriptor FD, and exits
// with CMD's exit code (128 + signal if a signal ended it).  SIGTERM
// or SIGINT kill CMD with SIGKILL; launch still waits for it and
// reports before it exits, so CMD never outlives launch.
//
// run.py starts every measured process through launch rather than
// straight from the Python interpreter: Linux carries the RSS
// high-water mark of the image a process exec()s from into that
// process's ru_maxrss, so a command spawned by the interpreter would
// never report a peak below the interpreter's own size.  launch is
// small, so the image CMD is exec()ed from barely registers.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <unistd.h>

namespace {

volatile sig_atomic_t child = 0;

void forward(int) {
    if (child > 0) ::kill(child, SIGKILL);
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 3) {
        std::fprintf(stderr, "usage: launch FD CMD [ARG...]\n");
        return 2;
    }
    const int report = std::atoi(argv[1]);
    ::fcntl(report, F_SETFD, FD_CLOEXEC);

    // Block the forwarded signals until the child's pid is known.
    sigset_t forwarded, old;
    sigemptyset(&forwarded);
    sigaddset(&forwarded, SIGTERM);
    sigaddset(&forwarded, SIGINT);
    ::sigprocmask(SIG_BLOCK, &forwarded, &old);
    struct sigaction action {};
    action.sa_handler = forward;
    sigemptyset(&action.sa_mask);
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        std::perror("launch: fork");
        return 2;
    }
    if (pid == 0) {
        ::signal(SIGTERM, SIG_DFL);
        ::signal(SIGINT, SIG_DFL);
        ::sigprocmask(SIG_SETMASK, &old, nullptr);
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // launch itself was killed
        ::execvp(argv[2], argv + 2);
        std::fprintf(stderr, "launch: %s: %s\n", argv[2], std::strerror(errno));
        ::_exit(127);
    }
    child = pid;
    ::sigprocmask(SIG_SETMASK, &old, nullptr);

    int status = 0;
    struct rusage usage {};
    while (::wait4(pid, &status, 0, &usage) < 0) {
        if (errno != EINTR) {
            std::perror("launch: wait4");
            return 2;
        }
    }
    const double cpu_s = usage.ru_utime.tv_sec + usage.ru_stime.tv_sec +
                         (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
    dprintf(report, "%d %.6f %ld\n", status, cpu_s, usage.ru_maxrss);
    ::close(report);
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    return 128 + WTERMSIG(status);
}
