/**
 * @file
 * serve-mixed: the real `accpar serve` as a child process, driven over
 * four TCP connections by one poll() loop.
 *
 * Each phase starts a fresh server and first sends the popular keys
 * once, as a long-running server would have them cached. Phase 1 then
 * offers the seeded request stream open loop at a fixed rate (about a
 * ninth of the seed commit's saturation) and times every request from
 * when it was due. Phase 2 sends a fixed number of the stream's
 * requests closed loop and reports the throughput it saturates at.
 *
 * The traced run repeats phase 1 with one span per round trip, replays
 * a prefix of the stream through an in-process PlanService (the
 * loopback transport) and the distinct missed plan keys through the
 * decomposed pipeline with certificates on.
 */

#ifndef ACCPAR_BENCH_E2E_SERVE_H
#define ACCPAR_BENCH_E2E_SERVE_H

#include "report.h"

namespace accpar::bench {

RunReport runServe(const RunOptions &options);

/** Set-up probe: inputs, a server, and a stats reply on every
 *  connection; prints "ready" once the last reply arrived. */
void probeServe(const RunOptions &options);

} // namespace accpar::bench

#endif // ACCPAR_BENCH_E2E_SERVE_H
