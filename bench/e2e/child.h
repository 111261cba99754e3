/**
 * @file
 * A child process whose standard output the benchmark reads: the
 * `accpar serve` server of serve-mixed and the set-up probes.
 */

#ifndef ACCPAR_BENCH_E2E_CHILD_H
#define ACCPAR_BENCH_E2E_CHILD_H

#include <sys/types.h>

#include <string>
#include <vector>

namespace accpar::bench {

class ChildProcess
{
  public:
    /** Spawns @p argv (argv[0] is the program path) with stdout on a
     *  pipe and stderr inherited. Throws ConfigError on failure. */
    explicit ChildProcess(const std::vector<std::string> &argv);

    /** Kills and reaps the child if it is still running. */
    ~ChildProcess();

    ChildProcess(const ChildProcess &) = delete;
    ChildProcess &operator=(const ChildProcess &) = delete;

    /** Next line of the child's stdout, without the newline. Throws
     *  ConfigError on end of output or after @p timeoutSeconds. */
    std::string readLine(double timeoutSeconds);

    /** Waits up to @p timeoutSeconds for the child to exit, then kills
     *  it. Returns the exit code, or 128 + signal number. */
    int wait(double timeoutSeconds);

    /** Peak resident set (VmHWM) of the running child, in MB; throws
     *  ConfigError when /proc does not report it. */
    double peakRssMb() const;

  private:
    pid_t _pid = -1;
    int _stdout = -1;
    std::string _buffer;
};

} // namespace accpar::bench

#endif // ACCPAR_BENCH_E2E_CHILD_H
