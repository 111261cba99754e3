#include "child.h"

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <thread>

#include "span_trace.h"
#include "util/error.h"

extern char **environ;

namespace accpar::bench {

ChildProcess::ChildProcess(const std::vector<std::string> &argv)
{
    int fds[2];
    if (::pipe(fds) != 0)
        throw util::ConfigError(std::string("pipe: ") +
                                std::strerror(errno));

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);

    std::vector<char *> args;
    for (const std::string &arg : argv)
        args.push_back(const_cast<char *>(arg.c_str()));
    args.push_back(nullptr);

    const int rc = posix_spawn(&_pid, argv.front().c_str(), &actions,
                               nullptr, args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    if (rc != 0) {
        ::close(fds[0]);
        throw util::ConfigError("cannot run " + argv.front() + ": " +
                                std::strerror(rc));
    }
    _stdout = fds[0];
}

ChildProcess::~ChildProcess()
{
    if (_pid > 0) {
        ::kill(_pid, SIGKILL);
        ::waitpid(_pid, nullptr, 0);
    }
    if (_stdout >= 0)
        ::close(_stdout);
}

std::string
ChildProcess::readLine(double timeoutSeconds)
{
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeoutSeconds));
    while (true) {
        const std::size_t nl = _buffer.find('\n');
        if (nl != std::string::npos) {
            std::string line = _buffer.substr(0, nl);
            _buffer.erase(0, nl + 1);
            return line;
        }
        const auto left = std::chrono::duration_cast<
            std::chrono::milliseconds>(deadline - Clock::now());
        if (left.count() <= 0)
            throw util::ConfigError("child process: no output line "
                                    "within the timeout");
        pollfd pfd = {};
        pfd.fd = _stdout;
        pfd.events = POLLIN;
        const int ready =
            ::poll(&pfd, 1, static_cast<int>(left.count()) + 1);
        if (ready < 0 && errno != EINTR)
            throw util::ConfigError(std::string("poll: ") +
                                    std::strerror(errno));
        if (ready <= 0)
            continue;
        char chunk[4096];
        const ssize_t got = ::read(_stdout, chunk, sizeof(chunk));
        if (got < 0 && errno == EINTR)
            continue;
        if (got <= 0)
            throw util::ConfigError("child process closed its output");
        _buffer.append(chunk, static_cast<std::size_t>(got));
    }
}

int
ChildProcess::wait(double timeoutSeconds)
{
    if (_pid <= 0)
        throw util::ConfigError("child process already reaped");
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeoutSeconds));
    int status = 0;
    pid_t done = 0;
    while ((done = ::waitpid(_pid, &status, WNOHANG)) == 0 &&
           Clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    if (done == 0) {
        ::kill(_pid, SIGKILL);
        ::waitpid(_pid, &status, 0);
    }
    _pid = -1;
    if (WIFSIGNALED(status))
        return 128 + WTERMSIG(status);
    return WEXITSTATUS(status);
}

double
ChildProcess::peakRssMb() const
{
    std::ifstream status("/proc/" + std::to_string(_pid) + "/status");
    std::string field;
    while (status >> field) {
        if (field == "VmHWM:") {
            double kb = 0.0;
            status >> kb;
            return kb / 1024.0;
        }
    }
    throw util::ConfigError("no VmHWM for child " + std::to_string(_pid));
}

} // namespace accpar::bench
