// The three workloads. Each builds its inputs from Options::seed, measures
// for Options::seconds, checks the library's outputs and fills a Result:
// end-to-end metrics on an untraced run, per-layer metrics on a traced one.
// NOTES.md gives each workload's rationale and the layer -> end-to-end map.
#pragma once

#include "report.hpp"

namespace perfbench {

Result run_pool_drain(const Options& opt);
Result run_design_eval(const Options& opt);
Result run_daemon_mix(const Options& opt);

}  // namespace perfbench
