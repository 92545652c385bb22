// trace_lint: well-formedness checker for exported Chrome trace_event
// JSON files, as produced by --trace-out.
//
// Usage:   ./build/examples/trace_lint trace.json [more.json ...]
//
// For each file, validates the JSON syntax and the span shape (every "X"
// event carries a non-negative dur; no span was auto-closed by the
// exporter; every "collective" span names the algorithm that ran) and
// prints a one-line summary. Exits non-zero if any file fails — CI runs
// this over the sample traces the benches emit.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util/cli.hpp"
#include "obs/export.hpp"

int main(int argc, char** argv) {
  std::vector<std::string> files;
  sparker::bench::Cli cli({{"trace.json", sparker::bench::list(&files), "",
                            /*repeats=*/true}});
  cli.parse(argc, argv);
  if (files.empty()) cli.fail("needs at least one trace file");
  int failures = 0;
  for (const std::string& file : files) {
    const char* name = file.c_str();
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "%s: cannot open\n", name);
      ++failures;
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const sparker::obs::FileLintResult r =
        sparker::obs::lint_chrome_trace_text(buf.str());
    if (!r.parsed) {
      std::fprintf(stderr, "%s: FAIL: %s\n", name, r.error.c_str());
      ++failures;
      continue;
    }
    if (!r.ok()) {
      std::fprintf(stderr,
                   "%s: FAIL: %zu unclosed span(s), %zu span(s) missing dur, "
                   "%zu negative duration(s), %zu collective span(s) "
                   "missing algo\n",
                   name, r.unclosed, r.spans_missing_dur,
                   r.negative_durations, r.collective_spans_missing_algo);
      ++failures;
      continue;
    }
    std::printf("%s: ok (%zu events, %zu spans, %zu collective)\n", name,
                r.events, r.spans, r.collective_spans);
  }
  return failures ? 1 : 0;
}
