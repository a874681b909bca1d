// perfbench — the repository benchmark driver.
//
//   perfbench --workload <pool_drain|design_eval|daemon_mix> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//             [--work-dir <dir>]
//
// Runs one workload, checks the library's outputs, and prints two lines: a
// context object (host record plus workload notes) and, last, the result
// object {"correct", "attempted", "failed", "metrics"}. With --trace 1 the
// metrics are the per-layer ones and the spans are written to --trace-out.
// perfbench/run.py builds this program and forwards the driver's flags.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "report.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<pool_drain|design_eval|daemon_mix> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>] [--work-dir <dir>]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opt.trace = value != "0";
      } else if (flag == "--trace-out") {
        opt.trace_out = value;
      } else if (flag == "--work-dir") {
        opt.work_dir = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

/// Cost of one aggregate-only span on this host, in ns.
double span_cost_ns() {
  const std::uint32_t name = trace::name_id("trace.calibration");
  constexpr int kSpans = 200000;
  const std::int64_t t0 = trace::now_ns();
  for (int i = 0; i < kSpans; ++i) {
    const trace::Span span(name, false);
  }
  return static_cast<double>(trace::now_ns() - t0) / kSpans;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  // A fixed mmap threshold turns off glibc's sliding one, so multi-MiB bit
  // streams are always mapped and unmapped instead of landing in whichever
  // per-thread arena served them; otherwise peak RSS of one seed differs
  // by 30% from run to run.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  try {
    double span_ns = 0.0;
    if (opt.trace) {
      trace::enable(200000);
      span_ns = span_cost_ns();
      trace::disable();
      trace::reset();
    }
    Result result;
    if (opt.workload == "pool_drain") {
      result = run_pool_drain(opt);
    } else if (opt.workload == "design_eval") {
      result = run_design_eval(opt);
    } else if (opt.workload == "daemon_mix") {
      result = run_daemon_mix(opt);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
    if (opt.trace) {
      trace::disable();
      result.layer("trace.span_cost_ns", span_ns);
      result.layer("trace.spans", static_cast<double>(trace::total_spans()));
      if (!opt.trace_out.empty() && !trace::write_json(opt.trace_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     opt.trace_out.c_str());
      }
    }
    result.print(opt.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  return 0;
}
