/**
 * @file
 * accpar_bench, the end-to-end benchmark: one workload per process.
 *
 *   accpar_bench --workload NAME --seed N --seconds S [--trace FILE]
 *                [--results FILE]
 *
 * Workloads: plan-cold, plan-dag, search (in process, one closed-loop
 * client) and serve-mixed (a real `accpar serve` child over TCP). An
 * untraced run reports the end-to-end metrics; --trace FILE makes a
 * separate traced run that reports the per-layer metrics and writes
 * the spans as Chrome trace-event JSON to FILE. Every run checks its
 * outputs; the last stdout line is the summary
 *   {"correct", "attempted", "failed", "metrics"}
 * and --results FILE receives the full record (sample counts, checks,
 * output digest, build context). bench/e2e/README.md has the details.
 *
 * --probe is internal: the set-up probe accpar_bench re-executes itself
 * as (setup_s is the median of seven probes).
 */

#include <unistd.h>

#include <fstream>
#include <iostream>
#include <thread>

#include "child.h"
#include "core/batch_kernels.h"
#include "core/planner.h"
#include "report.h"
#include "serve.h"
#include "util/args.h"
#include "util/error.h"
#include "workloads.h"

namespace {

using namespace accpar;
using namespace accpar::bench;

constexpr int kSetupProbes = 7;

bool
isServe(const std::string &workload)
{
    return workload == "serve-mixed";
}

std::string
selfPath()
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        throw util::ConfigError("cannot resolve /proc/self/exe");
    return std::string(buf, static_cast<std::size_t>(n));
}

/**
 * setup_s: the median over kSetupProbes fresh processes of the time
 * from spawning one to its first response (serve-mixed: until each of
 * its four connections got a reply from a freshly started server).
 */
double
measureSetup(const RunOptions &options)
{
    const std::string self = selfPath();
    std::vector<double> seconds;
    for (int i = 0; i < kSetupProbes; ++i) {
        const Clock::time_point start = Clock::now();
        ChildProcess probe({self, "--probe", "--workload", options.workload,
                            "--seed", std::to_string(options.seed),
                            "--seconds", std::to_string(options.seconds)});
        const std::string line = probe.readLine(120.0);
        seconds.push_back(
            static_cast<double>(nanosBetween(start, Clock::now())) / 1e9);
        if (line != "ready" || probe.wait(60.0) != 0)
            throw util::ConfigError("set-up probe failed");
    }
    return percentile(seconds, 0.5);
}

util::Json
buildContext()
{
    util::Json context = util::Json::Object{};
    context["nproc"] =
        static_cast<std::int64_t>(std::thread::hardware_concurrency());
    context["simd_variant"] = core::batchKernelVariantName();
    context["compiler"] = "gcc " __VERSION__;
    context["build_type"] = ACCPAR_BENCH_BUILD_TYPE;
    context["accpar_version"] = kAccParVersion;
    return context;
}

int
run(const util::Args &args)
{
    args.checkKnown(
        {"workload", "seed", "seconds", "trace", "results", "probe"});
    RunOptions options;
    options.workload = args.getOr("workload", "");
    options.seed = static_cast<std::uint64_t>(args.getIntOr("seed", 1));
    options.seconds = args.getDoubleOr("seconds", 10.0);
    options.tracePath = args.getOr("trace", "");
    if (options.workload != "plan-cold" && options.workload != "plan-dag" &&
        options.workload != "search" && !isServe(options.workload))
        throw util::ConfigError(
            "--workload must be plan-cold, plan-dag, search or "
            "serve-mixed, got '" +
            options.workload + "'");
    if (!(options.seconds > 0.0 && options.seconds <= 60.0))
        throw util::ConfigError("--seconds must be in (0, 60]");

    if (args.has("probe")) {
        if (isServe(options.workload))
            probeServe(options);
        else
            probeInProcess(options);
        return 0;
    }

    const double setup =
        options.traced() ? 0.0 : measureSetup(options);
    RunReport report = isServe(options.workload)
                           ? runServe(options)
                           : runInProcess(options);
    if (!options.traced())
        report.metric("setup_s", setup, "s");

    util::Json summary = util::Json::Object{};
    summary["correct"] = report.correct && report.failed == 0;
    summary["attempted"] = report.attempted;
    summary["failed"] = report.failed;
    summary["metrics"] = report.metrics;

    if (const auto path = args.get("results")) {
        util::Json record = summary;
        record["workload"] = options.workload;
        record["seed"] = static_cast<std::int64_t>(options.seed);
        record["seconds"] = options.seconds;
        record["traced"] = options.traced();
        record["context"] = buildContext();
        record["samples"] = report.samples;
        record["checks"] = report.checks;
        record["details"] = report.details;
        record["output_digest"] = report.outputDigest;
        std::ofstream out(*path);
        out << record.dump(2) << '\n';
        if (!out.good())
            throw util::ConfigError("cannot write " + *path);
    }
    for (const auto &[name, passed] : report.checks.asObject())
        if (!passed.asBool())
            std::cerr << "check failed: " << name << '\n';
    std::cout << summary.dump() << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(util::Args(std::vector<std::string>(argv + 1, argv + argc),
                              {"probe"}));
    } catch (const std::exception &e) {
        std::cerr << "accpar_bench: " << e.what() << '\n';
        return 1;
    }
}
