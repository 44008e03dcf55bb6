// crawlbench — one crawl of one workload of the crawl benchmark, in a
// process of its own so that its peak RSS is the crawl's, printed as one
// JSON line.
//
//   crawlbench --workload=harvest-inproc --seed=1 --mode=untraced
//       --state-base=.bench_build/state --spans-dir=.bench_build/spans
//
// --mode=untraced runs the workload as a user would; --mode=traced adds
// the layer decorators and reports the per-layer split; --mode=reference
// runs the same crawl in-process on the in-memory store without periodic
// checkpoints, whose output the other modes must reproduce. The crawl's
// state lives in a private directory under --state-base that is removed
// at exit. crawlbench/run.py builds this binary, repeats it for the
// requested time, and turns the lines into the benchmark's metrics.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "crawlbench/src/crawl.h"

#ifndef CRAWLBENCH_BUILD_TYPE
#define CRAWLBENCH_BUILD_TYPE "unknown"
#endif

namespace crawlbench {
namespace {

namespace fs = std::filesystem;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  std::string mode = "untraced";
  std::string state_base = ".";
  std::string spans_dir;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      *error = "unexpected argument '" + arg + "'";
      return false;
    }
    size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      values[arg.substr(2)] = argv[++i];
    } else {
      *error = "missing value for '" + arg + "'";
      return false;
    }
  }
  try {
    for (const auto& [key, value] : values) {
      if (key == "workload") {
        args->workload = value;
      } else if (key == "seed") {
        args->seed = std::stoull(value);
      } else if (key == "mode") {
        args->mode = value;
      } else if (key == "state-base") {
        args->state_base = value;
      } else if (key == "spans-dir") {
        args->spans_dir = value;
      } else {
        *error = "unknown flag '--" + key + "'";
        return false;
      }
    }
  } catch (const std::exception&) {
    *error = "bad flag value";
    return false;
  }
  if (FindWorkload(args->workload) == nullptr) {
    *error = "unknown --workload '" + args->workload + "'";
    return false;
  }
  if (args->mode != "untraced" && args->mode != "traced" &&
      args->mode != "reference") {
    *error = "unknown --mode '" + args->mode + "'";
    return false;
  }
  return true;
}

// A private directory, removed with everything in it on destruction.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& base) {
    std::error_code ignored;
    fs::create_directories(base, ignored);
    std::string pattern = base + "/crawlbench-XXXXXX";
    std::vector<char> buffer(pattern.begin(), pattern.end());
    buffer.push_back('\0');
    if (::mkdtemp(buffer.data()) != nullptr) path_ = buffer.data();
  }
  ~ScopedTempDir() {
    std::error_code ignored;
    if (!path_.empty()) fs::remove_all(path_, ignored);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  bool ok() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// Nearest-rank percentile.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

// Metrics in insertion order, printed with all their digits.
class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::ostringstream out;
    out.precision(17);
    out << "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      if (i > 0) out << ",";
      out << JsonString(entries_[i].name) << ":{\"value\":"
          << entries_[i].value << ",\"unit\":" << JsonString(entries_[i].unit)
          << "}";
    }
    return out.str() + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double Sec(uint64_t ns) { return static_cast<double>(ns) / 1e9; }
constexpr double kMB = 1e6;

// Per-layer metrics of one traced crawl. The times add up to its crawl_s.
void AddLayers(const CrawlSample& rep, MetricList& out) {
  const LayerTotals& l = *rep.layers;

  std::vector<double> wave_us;
  for (const WaveSpan& w : l.waves) {
    wave_us.push_back(static_cast<double>(w.fetch.length()) / 1e3);
  }
  const double rounds = static_cast<double>(rep.rounds);
  const uint64_t wire_ns =
      l.fetch_ns > l.backend_ns ? l.fetch_ns - l.backend_ns : 0;
  const uint64_t layer_sum_ns = l.engine_self_ns + l.selector_rank_ns +
                                l.selector_update_ns + l.fetch_ns +
                                l.checkpoint_ns;

  out.Add("engine.commit_self_s", Sec(l.engine_self_ns), "s");
  out.Add("engine.waves", static_cast<double>(l.waves.size()), "count");
  out.Add("selector.rank_s", Sec(l.selector_rank_ns), "s");
  out.Add("selector.rank_calls", static_cast<double>(l.selector_rank_calls),
          "count");
  out.Add("selector.update_s", Sec(l.selector_update_ns), "s");
  out.Add("selector.update_calls",
          static_cast<double>(l.selector_update_calls), "count");
  out.Add("store.replay_ingest_s", Sec(l.replay_ingest_ns), "s");
  out.Add("checkpoint.count", static_cast<double>(l.checkpoints), "count");
  out.Add("checkpoint.s", Sec(l.checkpoint_ns), "s");
  out.Add("checkpoint.max_ms", Ms(l.checkpoint_max_ns), "ms");
  out.Add("checkpoint.final_ms", Ms(l.checkpoint_final_ns), "ms");
  out.Add("checkpoint.bytes", static_cast<double>(l.checkpoint_bytes), "B");
  out.Add("retry.transient_failures",
          static_cast<double>(rep.resilience.transient_failures), "count");
  out.Add("retry.retries", static_cast<double>(rep.resilience.retries),
          "count");
  out.Add("retry.requeues", static_cast<double>(rep.resilience.requeues),
          "count");
  out.Add("retry.abandoned_values",
          static_cast<double>(rep.resilience.abandoned_values), "count");
  out.Add("retry.fetch_failure_share",
          Ratio(static_cast<double>(rep.resilience.transient_failures),
                rounds),
          "share");
  out.Add("faults.injected", static_cast<double>(l.faults_injected),
          "count");
  out.Add("server.fetch_s", Sec(l.backend_ns), "s");
  out.Add("server.fetch_calls", static_cast<double>(l.backend_calls),
          "count");
  out.Add("net.fetch_wave_s", Sec(l.fetch_ns), "s");
  out.Add("net.wave_p50_us", Percentile(wave_us, 50), "us");
  out.Add("net.wave_p99_us", Percentile(wave_us, 99), "us");
  out.Add("net.wire_s", Sec(wire_ns), "s");
  out.Add("net.rtt_mean_us", l.rtt_mean_us, "us");
  out.Add("net.reconnects", static_cast<double>(l.reconnects), "count");
  out.Add("net.protocol_errors", static_cast<double>(l.protocol_errors),
          "count");
  out.Add("net.requests_served", static_cast<double>(l.requests_served),
          "count");
  const double accesses =
      static_cast<double>(rep.cache.hits + rep.cache.misses);
  out.Add("cache.hits", static_cast<double>(rep.cache.hits), "count");
  out.Add("cache.misses", static_cast<double>(rep.cache.misses), "count");
  out.Add("cache.hit_ratio",
          Ratio(static_cast<double>(rep.cache.hits), accesses), "share");
  out.Add("cache.evictions", static_cast<double>(rep.cache.evictions),
          "count");
  out.Add("cache.writebacks", static_cast<double>(rep.cache.writebacks),
          "count");
  out.Add("io.write_mb", static_cast<double>(l.io_write_bytes) / kMB, "MB");
  out.Add("io.read_mb", static_cast<double>(l.io_read_bytes) / kMB, "MB");
  out.Add("io.syscalls_per_round",
          Ratio(static_cast<double>(l.io_syscalls), rounds), "1/round");
  out.Add("trace.crawl_s", rep.crawl_s, "s");
  out.Add("trace.layer_sum_s", Sec(layer_sum_ns), "s");
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::cerr << "crawlbench: " << error << "\n";
    return 2;
  }
  ScopedTempDir state(args.state_base);
  if (!state.ok()) {
    std::cerr << "crawlbench: cannot create a state dir under "
              << args.state_base << "\n";
    return 1;
  }
  RunMode mode;
  mode.traced = args.mode == "traced";
  mode.reference = args.mode == "reference";
  if (mode.traced && !args.spans_dir.empty()) {
    std::error_code ignored;  // a missing spans file is not a failure
    fs::create_directories(args.spans_dir, ignored);
    mode.spans_path = args.spans_dir + "/" + args.workload + "-seed" +
                      std::to_string(args.seed) + ".jsonl";
  }
  deepcrawl::StatusOr<CrawlSample> run =
      RunCrawl(*FindWorkload(args.workload), args.seed, state.path(), mode);
  if (!run.ok()) {
    std::cerr << "crawlbench: " << args.workload << " seed " << args.seed
              << ": " << run.status().ToString() << "\n";
    return 1;
  }
  const CrawlSample& sample = *run;
  if (sample.layers.has_value() &&
      sample.layers->waves.size() != sample.waves) {
    std::cerr << "crawlbench: traced wave count differs from the engine's\n";
    return 1;
  }
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);

  std::ostringstream out;
  out.precision(17);
  out << "{\"workload\":" << JsonString(args.workload)
      << ",\"seed\":" << args.seed << ",\"mode\":" << JsonString(args.mode)
      << ",\"digest\":\"" << std::hex << sample.digest << std::dec << "\""
      << ",\"setup_s\":" << sample.setup_s
      << ",\"crawl_s\":" << sample.crawl_s
      << ",\"datagen_s\":" << sample.datagen_s
      << ",\"server_build_s\":" << sample.server_build_s
      << ",\"peak_rss_bytes\":"
      << static_cast<uint64_t>(usage.ru_maxrss) * 1024
      << ",\"disk_bytes\":" << sample.disk_bytes;
  out << ",\"counts\":{\"rounds\":" << sample.rounds
      << ",\"queries\":" << sample.queries
      << ",\"records\":" << sample.records
      << ",\"table_records\":" << sample.table_records
      << ",\"waves\":" << sample.waves
      << ",\"stop_reason\":" << JsonString(sample.stop_reason)
      << ",\"transient_failures\":" << sample.resilience.transient_failures
      << ",\"abandoned_values\":" << sample.resilience.abandoned_values
      << ",\"cache_hits\":" << sample.cache.hits
      << ",\"cache_misses\":" << sample.cache.misses
      << ",\"cache_evictions\":" << sample.cache.evictions
      << ",\"cache_writebacks\":" << sample.cache.writebacks
      << ",\"checkpoints\":" << sample.checkpoints << "}";
  out << ",\"host\":{\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"cpu_model\":" << JsonString(CpuModel())
      << ",\"compiler\":" << JsonString(std::string("g++ ") + __VERSION__)
      << ",\"build_type\":" << JsonString(CRAWLBENCH_BUILD_TYPE) << "}";
  if (sample.layers.has_value()) {
    MetricList layers;
    AddLayers(sample, layers);
    out << ",\"layers\":" << layers.Json();
  }
  out << "}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace crawlbench

int main(int argc, char** argv) { return crawlbench::Main(argc, argv); }
