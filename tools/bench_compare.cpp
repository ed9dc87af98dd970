// Perf-regression gate: diff a fresh bench_report JSON against the tracked
// baseline (BENCH_sweep.json).
//
//   bench_compare <current.json> [--baseline BENCH_sweep.json]
//                 [--tolerance 0.25] [--substrate-tolerance 0.5]
//                 [--hook-tolerance 0.02]
//
// Checks, per sweep present in the baseline:
//   * identical_metrics must still be true (zero tolerance — a parallel
//     determinism break is a correctness bug, not a perf wobble);
//   * serial_seconds must not exceed baseline * (1 + tolerance);
//   * rows carrying an "obs_hook_overhead" member (the fig3/fig6 inert
//     tracing-hook measurement, docs/observability.md: the median of
//     bench_report's interleaved trials) must stay at or
//     below 1 + hook-tolerance — the current report's own ratio, not a
//     baseline diff, so disabled-tracing hooks can never quietly grow a
//     cost;
// and per reputation substrate: dense_ops_per_second must not fall below
// baseline / (1 + substrate-tolerance).
//
// Baseline rows carrying "optional": true (the large_deployment row, which
// bench_report only emits under --large) may be absent from the current
// report; they are noted and skipped rather than failed.
//
// The two JSONs must describe the same workload: the "scale" objects
// (peers/aus/years/seeds) have to match exactly, otherwise the comparison
// is meaningless and the tool refuses (exit 2). Wall-clock noise across
// machines is why the tolerance is a band, not an equality; CI passes a
// generous band so only gross regressions (an accidental O(n^2), a dropped
// optimization) trip it.
//
// Exit codes: 0 within band, 1 regression(s) found, 2 usage/parse error.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "campaign/json.hpp"
#include "experiment/cli.hpp"

using namespace lockss;

namespace {

bool read_file(const std::string& path, std::string* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    *error = "cannot read " + path;
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

bool load_json(const std::string& path, campaign::Json* out, std::string* error) {
  std::string text;
  if (!read_file(path, &text, error)) {
    return false;
  }
  if (!campaign::parse_json(text, out, error)) {
    *error = path + ": " + *error;
    return false;
  }
  if (!out->is_object()) {
    *error = path + ": expected a bench_report object";
    return false;
  }
  return true;
}

double number_or(const campaign::Json* obj, const std::string& key, double fallback) {
  const campaign::Json* v = obj ? obj->find(key) : nullptr;
  return v && v->is_number() ? v->number_value : fallback;
}

std::string text_or(const campaign::Json* obj, const std::string& key) {
  const campaign::Json* v = obj ? obj->find(key) : nullptr;
  return v && v->is_string() ? v->string_value : std::string();
}

// Finds the entry of `array` whose "name" member equals `name`.
const campaign::Json* find_named(const campaign::Json* array, const std::string& name) {
  if (!array || !array->is_array()) {
    return nullptr;
  }
  for (const campaign::Json& item : array->array_items) {
    if (item.is_object() && text_or(&item, "name") == name) {
      return &item;
    }
  }
  return nullptr;
}

bool scales_match(const campaign::Json* a, const campaign::Json* b) {
  for (const char* key : {"peers", "aus", "years", "seeds"}) {
    if (number_or(a, key, -1.0) != number_or(b, key, -2.0)) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argv[1][0] == '-') {
    std::fprintf(stderr,
                 "usage: bench_compare <current.json> [--baseline BENCH_sweep.json] "
                 "[--tolerance 0.25] [--substrate-tolerance 0.5] [--hook-tolerance 0.02]\n");
    return 2;
  }
  const std::string current_path = argv[1];
  experiment::CliArgs args(argc - 1, argv + 1);
  const std::string baseline_path = args.text("baseline", "BENCH_sweep.json");
  const double tolerance = args.real("tolerance", 0.25);
  const double substrate_tolerance = args.real("substrate-tolerance", 0.5);
  const double hook_tolerance = args.real("hook-tolerance", 0.02);
  if (tolerance < 0.0 || substrate_tolerance < 0.0 || hook_tolerance < 0.0) {
    std::fprintf(stderr, "error: tolerance must be >= 0\n");
    return 2;
  }

  campaign::Json baseline, current;
  std::string error;
  if (!load_json(baseline_path, &baseline, &error) ||
      !load_json(current_path, &current, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  if (!scales_match(baseline.find("scale"), current.find("scale"))) {
    std::fprintf(stderr,
                 "error: scale mismatch between %s and %s — rerun bench_report at the "
                 "baseline scale (no --peers/--aus/--years/--seeds overrides)\n",
                 baseline_path.c_str(), current_path.c_str());
    return 2;
  }

  int regressions = 0;
  std::printf("# bench_compare: %s vs baseline %s (tolerance %.0f%%, substrates %.0f%%)\n",
              current_path.c_str(), baseline_path.c_str(), tolerance * 100.0,
              substrate_tolerance * 100.0);

  const campaign::Json* base_sweeps = baseline.find("sweeps");
  if (base_sweeps && base_sweeps->is_array()) {
    for (const campaign::Json& base : base_sweeps->array_items) {
      const std::string name = text_or(&base, "name");
      const campaign::Json* cur = find_named(current.find("sweeps"), name);
      if (!cur) {
        // Rows the baseline marks optional (e.g. large_deployment, emitted
        // only under bench_report --large) are allowed to be absent from a
        // current report; everything else missing is a regression.
        const campaign::Json* optional = base.find("optional");
        if (optional && optional->is_bool() && optional->bool_value) {
          std::printf("skip %-28s optional row absent from %s\n", name.c_str(),
                      current_path.c_str());
          continue;
        }
        std::printf("FAIL %-28s missing from %s\n", name.c_str(), current_path.c_str());
        ++regressions;
        continue;
      }
      const campaign::Json* identical = cur->find("identical_metrics");
      if (!identical || !identical->is_bool() || !identical->bool_value) {
        std::printf("FAIL %-28s identical_metrics is not true (determinism break)\n",
                    name.c_str());
        ++regressions;
        continue;
      }
      const double base_s = number_or(&base, "serial_seconds", 0.0);
      const double cur_s = number_or(cur, "serial_seconds", 0.0);
      const double limit = base_s * (1.0 + tolerance);
      if (base_s > 0.0 && cur_s > limit) {
        std::printf("FAIL %-28s serial %.3fs > %.3fs (baseline %.3fs %+.0f%%)\n", name.c_str(),
                    cur_s, limit, base_s, (cur_s / base_s - 1.0) * 100.0);
        ++regressions;
      } else {
        std::printf("ok   %-28s serial %.3fs (baseline %.3fs %+.0f%%)\n", name.c_str(), cur_s,
                    base_s, base_s > 0.0 ? (cur_s / base_s - 1.0) * 100.0 : 0.0);
      }
      // Inert-hook bounds: absolute caps on the current report's own ratios
      // (a baseline diff would let a slow creep ratchet past any bound one
      // PR at a time). obs_hook_overhead is the disabled-tracing path,
      // policy_hook_overhead the installed-but-never-firing PolicyEngine.
      const struct {
        const char* key;
        const char* what;
      } hooks[] = {{"obs_hook_overhead", "obs"}, {"policy_hook_overhead", "policy"}};
      for (const auto& h : hooks) {
        const double hook = number_or(cur, h.key, 0.0);
        if (hook > 0.0) {
          if (hook > 1.0 + hook_tolerance) {
            std::printf("FAIL %-28s %s hook overhead %.3fx > %.3fx cap\n", name.c_str(),
                        h.what, hook, 1.0 + hook_tolerance);
            ++regressions;
          } else {
            std::printf("ok   %-28s %s hook overhead %.3fx (cap %.3fx)\n", name.c_str(),
                        h.what, hook, 1.0 + hook_tolerance);
          }
        }
      }
    }
  }

  const campaign::Json* base_substrates = baseline.find("substrates");
  if (base_substrates && base_substrates->is_array()) {
    for (const campaign::Json& base : base_substrates->array_items) {
      const std::string name = text_or(&base, "name");
      const campaign::Json* cur = find_named(current.find("substrates"), name);
      if (!cur) {
        std::printf("FAIL %-28s missing from %s\n", name.c_str(), current_path.c_str());
        ++regressions;
        continue;
      }
      const double base_ops = number_or(&base, "dense_ops_per_second", 0.0);
      const double cur_ops = number_or(cur, "dense_ops_per_second", 0.0);
      const double floor = base_ops / (1.0 + substrate_tolerance);
      if (base_ops > 0.0 && cur_ops < floor) {
        std::printf("FAIL %-28s dense %.2fM ops/s < %.2fM (baseline %.2fM %+.0f%%)\n",
                    name.c_str(), cur_ops / 1e6, floor / 1e6, base_ops / 1e6,
                    (cur_ops / base_ops - 1.0) * 100.0);
        ++regressions;
      } else {
        std::printf("ok   %-28s dense %.2fM ops/s (baseline %.2fM %+.0f%%)\n", name.c_str(),
                    cur_ops / 1e6, base_ops / 1e6,
                    base_ops > 0.0 ? (cur_ops / base_ops - 1.0) * 100.0 : 0.0);
      }
    }
  }

  if (regressions > 0) {
    std::printf("# %d regression(s) beyond the tolerance band\n", regressions);
    return 1;
  }
  std::printf("# all within band\n");
  return 0;
}
