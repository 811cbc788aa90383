// Measurement harness of the repository benchmark (perfbench/run.py
// builds and runs it; see BENCHMARK.json for the workloads and metrics).
//
//   perfbench_harness --workload W --seed S --seconds T --trace 0|1
//                     --workdir DIR [--rev REV]
//
// Everything is measured from outside the library, through its public
// entry points: dnn::bind_layers, PlanCache, rt::compile, the
// CompiledNetwork execution methods, rt::save_artifact/load_artifact and
// rt::ServingEngine::submit_async.
//
// Workloads:
//   resnet34_wide  sparse ResNet-34 at 2:4, every layer at its full
//                  224x224 activation width; one forward is run(i, X_i)
//                  over the 37 layers in network order (not a chain).
//   decode_gemv    6-layer transformer decode step (hidden 1024, KV 1024)
//                  at 2:4; one forward is run_network at n = 1.
//   bert_series    BERT-base encoder GEMMs plus head as a chain at 128
//                  tokens, every pruned layer on the series 2:8+1:8.
//
// Every workload runs the same phases on its network: set-up (compile,
// save, load), closed-loop forwards of the TASD and the dense artifact
// interleaved, and batch-16 forwards (run_network_batch; run_batch per
// layer for the conv net).
//
// --trace 0 measures the end-to-end metrics with no spans recorded.
// --trace 1 is the separate traced run: it records a span around every
// public call, serves the network open-loop through one ServingEngine
// (each request walks the layers, submitting the next hop from the
// previous hop's callback), writes the spans as Chrome trace-event JSON
// to DIR/<workload>-<seed>.trace.json (opens in Perfetto) and reports
// the per-layer metrics, including its own overhead.
//
// Every output is checked (see check()); the last stdout line is the
// result object {"correct", "attempted", "failed", "metrics"}. The exit
// code is 1 when any correctness check missed, 2 on a usage or runtime
// error. The host and binding record, raw samples and per-rate serving
// detail go to DIR/<workload>-<seed>[.traced].result.json and stderr.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "artifact/artifact.hpp"
#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "core/plan_cache.hpp"
#include "dnn/layer_binding.hpp"
#include "dnn/workloads.hpp"
#include "runtime/compiled_network.hpp"
#include "runtime/serving_engine.hpp"
#include "stats.hpp"
#include "tensor/gemm_ref.hpp"
#include "tensor/generator.hpp"

namespace {

using namespace tasd;
using perfbench::median;
using perfbench::percentile;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Wall time of fn() in ms, with no span.
template <class F>
double time_ms(F&& fn) {
  const auto start = Clock::now();
  fn();
  return ms_between(start, Clock::now());
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Spans: kept in memory, written once at exit as Chrome trace events.

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool on() const { return on_; }
  std::uint64_t new_id() { return next_id_.fetch_add(1); }

  void record(const std::string& name, Clock::time_point start,
              Clock::time_point end, std::uint64_t id, std::uint64_t parent,
              std::uint64_t request = 0) {
    if (!on_) return;
    Span s{name, us(start), us(end), id, parent, request, thread_index()};
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
  }

  /// Run fn() inside a span named `name` under `parent`; returns fn()'s
  /// duration in ms. With tracing off, only the duration is taken.
  template <class F>
  double timed(const std::string& name, std::uint64_t parent, F&& fn,
               std::uint64_t id = 0) {
    const auto start = Clock::now();
    fn();
    const auto end = Clock::now();
    if (on_) record(name, start, end, id ? id : new_id(), parent);
    return ms_between(start, end);
  }

  [[nodiscard]] std::size_t span_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  bool write_chrome(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"request\":%llu}}%s\n",
                   json_escape(s.name).c_str(), s.tid, s.start_us,
                   s.end_us - s.start_us,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    double start_us, end_us;
    std::uint64_t id, parent, request;
    int tid;
  };

  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  static int thread_index() {
    static std::atomic<int> next{1};
    thread_local const int index = next.fetch_add(1);
    return index;
  }

  const bool on_;
  const Clock::time_point origin_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Result collection.

struct Metric {
  double value;
  const char* unit;
};

struct Report {
  std::map<std::string, std::string> host;
  std::map<std::string, Metric> metrics;    ///< end-to-end (untraced run)
  std::map<std::string, Metric> per_layer;  ///< traced run
  /// Raw samples and per-rate detail for the result file.
  std::map<std::string, std::vector<double>> samples;
  std::string serving_detail;  ///< JSON object, empty when not serving
  std::uint64_t checks = 0;
  std::uint64_t misses = 0;
  std::vector<std::string> miss_notes;
  std::vector<perfbench::Rung> operating;  ///< the serving rate (traced)

  /// One correctness check: counted as attempted, and as failed on a miss.
  void check(bool ok, const std::string& what) {
    ++checks;
    if (ok) return;
    ++misses;
    if (miss_notes.size() < 20) miss_notes.push_back(what);
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  void layer(const std::string& name, double value, const char* unit) {
    per_layer[name] = Metric{value, unit};
  }
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ",";
    out += json_number(v[i]);
  }
  return out + "]";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return std::max(1U, std::thread::hardware_concurrency());
}

// ---------------------------------------------------------------------------
// Workloads.

struct WorkloadSpec {
  dnn::NetworkWorkload net;
  std::vector<std::optional<TasdConfig>> configs;
  bool chain = true;
  std::size_t inputs = 16;  ///< seeded inputs (chained nets)
  Index input_cols = 1;     ///< columns of one chained input
  /// Offered requests/s of the traced run's serving phase: absolute, and
  /// at most half of what the engine sustains on a 4-vCPU AVX-512 Xeon.
  double serve_rate = 0.0;
  /// The p99 latency the serving rate must hold to pass (rung_passes);
  /// each request's deadline is twice this, so an overload turns into
  /// kDeadline / kShed refusals instead of an unbounded queue.
  double serve_limit_ms = 250.0;
};

WorkloadSpec make_spec(const std::string& workload, std::uint64_t seed) {
  WorkloadSpec s;
  std::string series = "2:4";
  if (workload == "resnet34_wide") {
    s.net = dnn::resnet34_workload(true, seed);
    s.chain = false;
    s.serve_rate = 3.0;
    s.serve_limit_ms = 1000.0;
  } else if (workload == "decode_gemv") {
    s.net = dnn::decode_step_workload(1024, 1024, true, seed);
    s.serve_rate = 400.0;
  } else if (workload == "bert_series") {
    s.net = dnn::bert_workload(true, seed);
    series = "2:8+1:8";
    s.input_cols = 128;
    s.serve_rate = 40.0;
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  for (const auto& l : s.net.layers) {
    if (l.weight_density < 1.0)
      s.configs.emplace_back(TasdConfig::parse(series));
    else
      s.configs.emplace_back(std::nullopt);
  }
  return s;
}

std::size_t count_configured(const WorkloadSpec& s) {
  return static_cast<std::size_t>(
      std::count_if(s.configs.begin(), s.configs.end(),
                    [](const auto& c) { return c.has_value(); }));
}

/// Max-abs agreement within `tol` relative to the reference's largest
/// magnitude.
bool agrees(const MatrixF& y, const MatrixF& ref, double tol) {
  if (y.rows() != ref.rows() || y.cols() != ref.cols()) return false;
  double max_ref = 0.0, max_err = 0.0;
  for (Index i = 0; i < ref.size(); ++i) {
    max_ref = std::max(max_ref, std::fabs(static_cast<double>(ref.data()[i])));
    max_err = std::max(max_err, std::fabs(static_cast<double>(y.data()[i]) -
                                          ref.data()[i]));
  }
  return max_err <= tol * std::max(max_ref, 1e-30);
}

bool bit_equal(const MatrixF& a, const MatrixF& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// The operand each layer's kernel computes with, for the independent
/// gemm_ref reference: the plan's approximation() when configured, the
/// dense weight otherwise.
std::vector<MatrixF> reference_operands(const rt::CompiledNetwork& net) {
  std::vector<MatrixF> ops;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const auto& l = net.layer(i);
    ops.push_back(l.plan ? l.plan->approximation() : l.weight);
  }
  return ops;
}

// ---------------------------------------------------------------------------
// Set-up: compile, dense baseline, save/load.

struct Artifacts {
  std::optional<rt::CompiledNetwork> tasd;
  std::optional<rt::CompiledNetwork> dense;
};

/// Repeat `fn` at least `min_reps` times and until `budget_s` has passed
/// (at most max_reps); returns the per-repetition seconds.
template <class F>
std::vector<double> repeat_timed(int min_reps, int max_reps, double budget_s,
                                 F&& fn) {
  std::vector<double> out;
  const auto start = Clock::now();
  while (static_cast<int>(out.size()) < max_reps &&
         (static_cast<int>(out.size()) < min_reps ||
          ms_between(start, Clock::now()) < budget_s * 1e3)) {
    out.push_back(fn());
  }
  return out;
}

Artifacts set_up(const WorkloadSpec& spec, const rt::CompileOptions& opt,
                 Report& rep, Tracer& tr, std::uint64_t root,
                 std::vector<dnn::LayerBinding>& bindings) {
  const std::size_t configured = count_configured(spec);
  tr.timed("dnn::bind_layers", root,
           [&] { bindings = dnn::bind_layers(spec.net, spec.configs); });

  // setup_s: rt::compile from in-memory bindings on an empty PlanCache.
  std::optional<rt::CompiledNetwork> tasd;
  std::uint64_t decomps = 0;
  rep.samples["setup_s"] = repeat_timed(3, 15, 1.0, [&] {
    auto copy = bindings;
    tasd.reset();
    plan_cache().clear();
    plan_cache().reset_stats();
    const double ms = tr.timed("rt::compile", root, [&] {
      tasd.emplace(rt::compile(spec.net.name, std::move(copy), opt));
    });
    decomps = plan_cache().stats().decompositions;
    rep.check(decomps == configured,
              "compile decomposed " + std::to_string(decomps) +
                  " times, expected " + std::to_string(configured));
    return ms / 1e3;
  });

  rep.layer("core.decompositions", static_cast<double>(decomps), "count");
  const auto& o = tasd->options();
  rep.host["dense_kernel"] = o.dense_kernel;
  rep.host["nm_kernel"] = o.nm_kernel;
  rep.host["dense_batch_kernel"] = o.dense_batch_kernel;
  rep.host["nm_batch_kernel"] = o.nm_batch_kernel;
  rep.host["pool_threads"] =
      std::to_string(resolve_pool(tasd->policy()).num_threads());

  auto dense_bindings = bindings;
  for (auto& b : dense_bindings) b.config.reset();
  std::optional<rt::CompiledNetwork> dense;
  tr.timed("rt::compile(dense)", root, [&] {
    dense.emplace(rt::compile(spec.net.name + "_dense",
                              std::move(dense_bindings), opt));
  });
  return Artifacts{std::move(tasd), std::move(dense)};
}

/// Per-layer metrics read off the compiled artifact.
void artifact_layer_metrics(const rt::CompiledNetwork& tasd, Report& rep) {
  Index stored = 0, positions = 0;
  for (std::size_t i = 0; i < tasd.layer_count(); ++i) {
    const auto& l = tasd.layer(i);
    if (!l.plan) continue;
    stored += l.plan->nnz();
    positions += l.m * l.k;
  }
  rep.layer("core.kept_nnz_fraction",
            positions ? static_cast<double>(stored) / positions : 0.0, "1");
  rep.layer("sparse.plan_bytes", static_cast<double>(tasd.plan_bytes()), "B");
  rep.layer("artifact.bytes", static_cast<double>(tasd.artifact_bytes()), "B");
}

/// Traced run only: Σ PlanCache::get_or_build over the configured layers
/// on an empty cache (core.decompose_ms), then rt::compile with the cache
/// warm (compile.bind_ms), which must not decompose.
void trace_set_up(const WorkloadSpec& spec, const rt::CompileOptions& opt,
                  const std::vector<dnn::LayerBinding>& bindings, Report& rep,
                  Tracer& tr, std::uint64_t root) {
  plan_cache().clear();
  double decompose_ms = 0.0;
  for (const auto& b : bindings)
    if (b.config)
      decompose_ms += tr.timed("PlanCache::get_or_build", root, [&] {
        (void)plan_cache().get_or_build(b.weight, *b.config);
      });
  rep.layer("core.decompose_ms", decompose_ms, "ms");
  plan_cache().reset_stats();
  rep.layer("compile.bind_ms", median(repeat_timed(3, 10, 0.5, [&] {
              auto copy = bindings;
              return tr.timed("rt::compile(warm)", root, [&] {
                (void)rt::compile(spec.net.name, std::move(copy), opt);
              });
            })),
            "ms");
  rep.check(plan_cache().stats().decompositions == 0,
            "compile with a warm PlanCache decomposed");
}

/// save_artifact once, then load_artifact on an empty PlanCache; checks
/// zero decompositions at load and a bit-equal loaded artifact. The file
/// stays for the serving phase; the caller removes it.
void save_and_load(const rt::CompiledNetwork& tasd,
                   const rt::CompileOptions& opt, const std::string& path,
                   Report& rep, Tracer& tr, std::uint64_t root,
                   std::uint64_t seed) {
  const double save_ms = tr.timed("rt::save_artifact", root,
                                  [&] { rt::save_artifact(tasd, path); });
  rep.layer("artifact.save_ms", save_ms, "ms");
  std::optional<rt::CompiledNetwork> loaded;
  rep.samples["load_s"] = repeat_timed(3, 15, 1.0, [&] {
    loaded.reset();
    plan_cache().clear();
    plan_cache().reset_stats();
    const double ms = tr.timed("rt::load_artifact", root, [&] {
      loaded.emplace(rt::load_artifact(path, opt));
    });
    const auto decomps = plan_cache().stats().decompositions;
    rep.check(decomps == 0, "load_artifact decomposed " +
                                std::to_string(decomps) + " times");
    return ms / 1e3;
  });

  rep.check(loaded->layer_count() == tasd.layer_count(),
            "loaded artifact layer count differs");
  Rng rng(seed * 31 + 5);
  for (std::size_t i = 0; i < tasd.layer_count(); ++i) {
    const MatrixF x = random_dense(tasd.layer(i).k, 3, Dist::kNormalStd1, rng);
    rep.check(bit_equal(loaded->run(i, x), tasd.run(i, x)),
              "loaded artifact differs at layer " + tasd.layer(i).name);
  }
}

// ---------------------------------------------------------------------------
// Closed-loop forward workloads.

/// One forward: the chained run_network on input `which`, or for a
/// non-chained net run(i, X_i) over every layer in order. With `layered`
/// (the traced forward) the chain also runs layer by layer, one span and
/// one timing per layer (run_network "is exactly that loop").
struct ForwardRunner {
  const WorkloadSpec& spec;
  const std::vector<MatrixF>& inputs;  ///< chain: inputs; else per layer
  Tracer& tr;

  std::vector<MatrixF> run(const rt::CompiledNetwork& net, std::size_t which,
                           std::uint64_t parent, bool layered,
                           std::vector<double>* layer_ms) const {
    std::vector<MatrixF> out;
    if (spec.chain && !layered) {
      out.push_back(net.run_network(inputs[which]));
      return out;
    }
    const MatrixF* x = spec.chain ? &inputs[which] : nullptr;
    MatrixF carry;
    for (std::size_t i = 0; i < net.layer_count(); ++i) {
      const MatrixF& in = spec.chain ? *x : inputs[i];
      MatrixF y;
      auto call = [&] { y = net.run(i, in); };
      const double ms = layered
                            ? tr.timed("run " + net.layer(i).name, parent, call)
                            : time_ms(call);
      if (layer_ms) layer_ms[i].push_back(ms);
      if (spec.chain) {
        carry = std::move(y);
        x = &carry;
      } else {
        out.push_back(std::move(y));
      }
    }
    if (spec.chain) out.push_back(std::move(carry));
    return out;
  }
};

std::vector<MatrixF> make_inputs(const WorkloadSpec& spec,
                                 const rt::CompiledNetwork& net,
                                 std::uint64_t seed) {
  Rng rng(seed * 1000003 + 17);
  std::vector<MatrixF> inputs;
  if (spec.chain) {
    for (std::size_t j = 0; j < spec.inputs; ++j)
      inputs.push_back(random_dense(net.layer(0).k, spec.input_cols,
                                    Dist::kNormalStd1, rng));
  } else {
    for (std::size_t i = 0; i < net.layer_count(); ++i)
      inputs.push_back(random_dense(net.layer(i).k, net.layer(i).n,
                                    Dist::kNormalStd1, rng));
  }
  return inputs;
}

/// The reference outputs of every input (chained gemm_ref for chains),
/// checked against the artifact's own outputs within 1e-4; returns the
/// artifact's outputs, which every later forward must repeat bit for bit.
std::vector<std::vector<MatrixF>> verified_outputs(
    const WorkloadSpec& spec, const rt::CompiledNetwork& tasd,
    const ForwardRunner& fwd, Report& rep) {
  std::vector<std::vector<MatrixF>> expected;
  const auto ops = reference_operands(tasd);
  const std::size_t sets = spec.chain ? fwd.inputs.size() : 1;
  for (std::size_t j = 0; j < sets; ++j) {
    auto y = fwd.run(tasd, j, 0, false, nullptr);
    if (spec.chain) {
      MatrixF ref = fwd.inputs[j];
      for (std::size_t i = 0; i < tasd.layer_count(); ++i)
        ref = gemm_ref(ops[i], ref);
      rep.check(agrees(y[0], ref, 1e-4),
                "forward output " + std::to_string(j) +
                    " disagrees with the gemm_ref chain");
    } else {
      for (std::size_t i = 0; i < tasd.layer_count(); ++i)
        rep.check(agrees(y[i], gemm_ref(ops[i], fwd.inputs[i]), 1e-4),
                  "layer " + tasd.layer(i).name + " disagrees with gemm_ref");
    }
    expected.push_back(std::move(y));
  }
  return expected;
}

/// ||y_tasd - y_dense||_F / ||y_dense||_F over every final output of the
/// seeded input set.
double approx_rel_err(const std::vector<std::vector<MatrixF>>& tasd_out,
                      const rt::CompiledNetwork& dense,
                      const ForwardRunner& fwd) {
  double diff2 = 0.0, ref2 = 0.0;
  for (std::size_t j = 0; j < tasd_out.size(); ++j) {
    const auto yd = fwd.run(dense, j, 0, false, nullptr);
    for (std::size_t o = 0; o < yd.size(); ++o) {
      for (Index e = 0; e < yd[o].size(); ++e) {
        const double d = static_cast<double>(tasd_out[j][o].data()[e]) -
                         yd[o].data()[e];
        diff2 += d * d;
        ref2 += static_cast<double>(yd[o].data()[e]) * yd[o].data()[e];
      }
    }
  }
  return ref2 > 0.0 ? std::sqrt(diff2 / ref2) : 0.0;
}

// ---------------------------------------------------------------------------
// Open-loop serving of whole forwards (traced run only).


enum class Outcome : std::uint8_t { kPending, kOk, kRefused, kWrong };

struct ServeRequest {
  Clock::time_point due;
  Clock::time_point deadline;
  Clock::time_point hop_submit;
  std::size_t input = 0;
  std::uint64_t span = 0;
  Outcome outcome = Outcome::kPending;
  double latency_ms = 0.0;
};

struct HopStats {
  std::vector<double> queue_ms, exec_ms, batch;
};

/// Offers Poisson arrivals of whole forwards to one ServingEngine. A
/// request walks the network hop by hop, each hop submitted with
/// submit_async from the previous hop's callback: for a chain the hop's
/// input is the previous output and the final output is checked; for the
/// conv net hop i takes X_i and every hop's output is checked.
class ServeDriver {
 public:
  ServeDriver(rt::ServingEngine& engine, const std::vector<MatrixF>& inputs,
              const std::vector<std::vector<MatrixF>>& expected, bool chain,
              std::chrono::milliseconds deadline, Tracer& tr)
      : engine_(engine),
        inputs_(inputs),
        expected_(expected),
        chain_(chain),
        deadline_(deadline),
        tr_(tr) {}
  ServeDriver(const ServeDriver&) = delete;
  ServeDriver& operator=(const ServeDriver&) = delete;

  struct RateResult {
    perfbench::Rung rung;
    double duration_s = 0.0;
    double gen_late_ms_max = 0.0;
    std::size_t refused = 0, wrong = 0;
    HopStats hops;
    rt::ModelMetrics before, after;
    rt::EngineMetrics engine_before, engine_after;
  };

  /// Offer Poisson arrivals at `rate` for `duration_s`; the arrival
  /// schedule is a function of `schedule_seed` alone.
  RateResult run(double rate, double duration_s, std::uint64_t schedule_seed) {
    std::vector<double> due_s;
    Rng rng(schedule_seed);
    for (double t = rng.uniform() / rate;;) {
      t += -std::log(1.0 - rng.uniform()) / rate;
      if (t >= duration_s) break;
      due_s.push_back(t);
    }
    RateResult res;
    res.duration_s = duration_s;
    res.rung.rate = rate;
    res.rung.attempted = due_s.size();
    res.before = engine_.metrics(0);
    res.engine_before = engine_.engine_metrics();
    std::vector<ServeRequest> reqs(due_s.size());
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = 0;
      hops_ = HopStats{};
    }
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      ServeRequest& r = reqs[i];
      r.due = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(due_s[i]));
      r.deadline = r.due + deadline_;
      r.input = chain_ ? i % inputs_.size() : 0;
      r.span = tr_.new_id();
      std::this_thread::sleep_until(r.due);
      res.gen_late_ms_max =
          std::max(res.gen_late_ms_max, ms_between(r.due, Clock::now()));
      submit_hop(r, 0, inputs_[r.input]);
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      const bool all = cv_.wait_for(lock, std::chrono::seconds(30), [&] {
        return done_ == reqs.size();
      });
      if (!all) throw std::runtime_error("serving requests never resolved");
      res.hops = std::move(hops_);
    }
    res.after = engine_.metrics(0);
    res.engine_after = engine_.engine_metrics();
    for (const ServeRequest& r : reqs) {
      const bool ok = r.outcome == Outcome::kOk;
      res.rung.ok += ok ? 1 : 0;
      res.refused += r.outcome == Outcome::kRefused ? 1 : 0;
      res.wrong += r.outcome == Outcome::kWrong ? 1 : 0;
      res.rung.latency_ms.push_back(
          ok ? r.latency_ms : std::numeric_limits<double>::infinity());
    }
    return res;
  }

 private:
  void submit_hop(ServeRequest& r, std::size_t layer, MatrixF input) {
    const auto now = Clock::now();
    if (now >= r.deadline) {
      finish(r, Outcome::kRefused);
      return;
    }
    r.hop_submit = now;
    engine_.submit_async(
        layer, std::move(input),
        [this, &r, layer](rt::Response resp) { on_hop(r, layer, resp); },
        std::chrono::duration_cast<std::chrono::microseconds>(r.deadline -
                                                              now));
  }

  void on_hop(ServeRequest& r, std::size_t layer, rt::Response& resp) {
    const auto now = Clock::now();
    if (tr_.on())
      tr_.record("submit_async " + engine_.model(0).layer(layer).name,
                 r.hop_submit, now, tr_.new_id(), r.span, r.span);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (resp.batch_size > 0) {
        hops_.queue_ms.push_back(resp.queue_ms);
        hops_.exec_ms.push_back(resp.latency_ms - resp.queue_ms);
        hops_.batch.push_back(static_cast<double>(resp.batch_size));
      }
    }
    const bool last = layer + 1 == engine_.model(0).layer_count();
    if (resp.status != rt::RequestStatus::kOk) {
      finish(r, Outcome::kRefused);
    } else if (!chain_ && !bit_equal(resp.output, expected_[0][layer])) {
      finish(r, Outcome::kWrong);
    } else if (!last) {
      submit_hop(r, layer + 1,
                 chain_ ? std::move(resp.output) : inputs_[layer + 1]);
    } else {
      finish(r, !chain_ || bit_equal(resp.output, expected_[r.input][0])
                    ? Outcome::kOk
                    : Outcome::kWrong);
    }
  }

  void finish(ServeRequest& r, Outcome outcome) {
    const auto now = Clock::now();
    r.latency_ms = ms_between(r.due, now);
    r.outcome = outcome;
    tr_.record("request", r.due, now, r.span, 0, r.span);
    std::lock_guard<std::mutex> lock(mu_);
    ++done_;
    cv_.notify_all();
  }

  rt::ServingEngine& engine_;
  const std::vector<MatrixF>& inputs_;
  const std::vector<std::vector<MatrixF>>& expected_;
  const bool chain_;
  const std::chrono::milliseconds deadline_;
  Tracer& tr_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t done_ = 0;
  HopStats hops_;
};

/// Serves the artifact saved at `path` at the workload's fixed rate for
/// `seconds` (after an untimed half second) and reports the serving
/// layer's per-layer metrics. Generator + batcher + pool workers stay
/// within nproc: the batcher is the pool's calling thread, the generator
/// is this thread.
void serve_phase(const WorkloadSpec& spec, const std::string& path,
                 std::uint64_t seed, double seconds,
                 const std::vector<MatrixF>& inputs,
                 const std::vector<std::vector<MatrixF>>& expected,
                 Report& rep, Tracer& tr, std::uint64_t root) {
  const auto start = Clock::now();
  rt::CompileOptions opt;
  opt.measure.num_threads = std::max<std::size_t>(1, nproc() - 1);
  plan_cache().clear();
  plan_cache().reset_stats();
  rt::ServingOptions sopt;
  sopt.admission_window = std::chrono::microseconds(500);
  sopt.max_batch = 16;
  rt::ServingEngine engine(rt::load_artifact(path, opt), sopt);
  ServeDriver driver(engine, inputs, expected, spec.chain,
                     std::chrono::milliseconds(
                         static_cast<std::int64_t>(2 * spec.serve_limit_ms)),
                     tr);

  (void)driver.run(spec.serve_rate, 0.5, seed * 7777);
  const auto r = driver.run(spec.serve_rate, seconds, seed * 7777 + 1);
  rep.check(plan_cache().stats().decompositions == 0, "serving decomposed");
  rep.check(r.wrong == 0, std::to_string(r.wrong) +
                              " served outputs differ from run at " +
                              json_number(r.rung.rate) + " req/s");
  rep.operating.push_back(r.rung);
  tr.record("serve", start, Clock::now(), tr.new_id(), root);

  std::vector<double> ok_lat;
  for (const double x : r.rung.latency_ms)
    if (std::isfinite(x)) ok_lat.push_back(x);
  const bool pass = perfbench::rung_passes(r.rung, spec.serve_limit_ms);
  std::fprintf(stderr,
               "  serve %7.1f req/s  %5zu sent  %5zu ok  %4zu refused  "
               "p50 %7.2f ms  p99 %7.2f ms  late<=%.2f ms  %s\n",
               r.rung.rate, r.rung.attempted, r.rung.ok, r.refused,
               median(ok_lat), percentile(ok_lat, 99.0), r.gen_late_ms_max,
               pass ? "pass" : "FAIL");
  rep.serving_detail =
      "{\"rate\":" + json_number(r.rung.rate) +
      ",\"seconds\":" + json_number(r.duration_s) +
      ",\"attempted\":" + std::to_string(r.rung.attempted) +
      ",\"ok\":" + std::to_string(r.rung.ok) +
      ",\"refused\":" + std::to_string(r.refused) +
      ",\"wrong\":" + std::to_string(r.wrong) +
      ",\"p50_ms\":" + json_number(median(ok_lat)) +
      ",\"p99_ms\":" + json_number(percentile(ok_lat, 99.0)) +
      ",\"tail_percentile\":" +
      json_number(perfbench::supported_tail(ok_lat.size())) +
      ",\"backlog\":" +
      (perfbench::growing_backlog(r.rung.latency_ms) ? "true" : "false") +
      ",\"pass\":" + (pass ? "true" : "false") +
      ",\"gen_late_ms_max\":" + json_number(r.gen_late_ms_max) + "}";

  const auto& h = r.hops;
  const double busy = r.engine_after.busy_ms - r.engine_before.busy_ms;
  const double idle = r.engine_after.idle_ms - r.engine_before.idle_ms;
  rep.layer("serving.queue_ms_p50", median(h.queue_ms), "ms");
  rep.layer("serving.queue_ms_p99", percentile(h.queue_ms, 99.0), "ms");
  rep.layer("serving.exec_ms_p50", median(h.exec_ms), "ms");
  double batch_sum = 0.0;
  for (const double b : h.batch) batch_sum += b;
  rep.layer("serving.batch_mean",
            h.batch.empty() ? 0.0 : batch_sum / h.batch.size(), "count");
  rep.layer("serving.occupancy", busy + idle > 0 ? busy / (busy + idle) : 0.0,
            "1");
  rep.layer("serving.degraded_batches",
            static_cast<double>(r.after.degraded_batches -
                                r.before.degraded_batches),
            "count");
  rep.layer("serving.expired",
            static_cast<double>(r.after.expired - r.before.expired), "count");
  rep.layer("serving.shed", static_cast<double>(r.after.shed - r.before.shed),
            "count");
  rep.layer("serving.gen_late_ms_max", r.gen_late_ms_max, "ms");
}

// ---------------------------------------------------------------------------
// The workload: set-up, closed-loop forwards, batch-16 forwards and, in
// the traced run, serving.

struct LayerSamples {
  std::vector<std::vector<double>> nm_or_dense;  ///< TASD artifact run()
  std::vector<std::vector<double>> baseline;     ///< dense artifact run()
  std::vector<std::vector<double>> batch16;      ///< TASD artifact run_batch
};

constexpr std::size_t kBatch = 16;

/// Batch-16 forwards of the TASD artifact for `budget_s`, every item
/// checked bit-equal to its single-input forward; returns one sample (ms)
/// per batch forward. Chains: run_network_batch over the first 16 inputs,
/// or, traced, run_batch layer by layer inside spans. The conv net: each
/// layer's run_batch on 16 copies of its X_i, at least 3 times (the
/// median discounts a cold first call) and for its share of the budget;
/// its one sample is the sum of the per-layer medians. Per-layer times go to `layer_ms` whenever they are taken.
std::vector<double> batch16_phase(
    const WorkloadSpec& spec, const rt::CompiledNetwork& tasd,
    const std::vector<MatrixF>& inputs,
    const std::vector<std::vector<MatrixF>>& expected, double budget_s,
    Report& rep, Tracer& tr, std::uint64_t root,
    std::vector<std::vector<double>>& layer_ms) {
  const std::size_t layers = tasd.layer_count();
  const std::uint64_t id = tr.new_id();
  const auto phase_start = Clock::now();
  std::vector<double> pass_ms;
  if (spec.chain) {
    const std::vector<MatrixF> batch(inputs.begin(), inputs.begin() + kBatch);
    auto check = [&](const std::vector<MatrixF>& ys) {
      bool same = ys.size() == kBatch;
      for (std::size_t j = 0; same && j < kBatch; ++j)
        same = bit_equal(ys[j], expected[j][0]);
      rep.check(same, "run_network_batch item differs from run_network");
    };
    check(tasd.run_network_batch(batch));  // warm-up, untimed
    while (pass_ms.size() < 3 ||
           ms_between(phase_start, Clock::now()) < budget_s * 1e3) {
      std::vector<MatrixF> ys;
      if (!tr.on()) {
        pass_ms.push_back(time_ms([&] { ys = tasd.run_network_batch(batch); }));
      } else {
        const std::uint64_t pass = tr.new_id();
        pass_ms.push_back(tr.timed(
            "forward(batch16)", id,
            [&] {
              for (std::size_t i = 0; i < layers; ++i)
                layer_ms[i].push_back(
                    tr.timed("run_batch " + tasd.layer(i).name, pass, [&] {
                      ys = tasd.run_batch(i, i ? ys : batch);
                    }));
            },
            pass));
      }
      check(ys);
    }
  } else {
    double sum = 0.0;
    for (std::size_t i = 0; i < layers; ++i) {
      const std::vector<MatrixF> batch(kBatch, inputs[i]);
      const std::string name = "run_batch " + tasd.layer(i).name;
      auto call = [&] {
        std::vector<MatrixF> ys;
        const double ms =
            tr.timed(name, id, [&] { ys = tasd.run_batch(i, batch); });
        bool same = ys.size() == kBatch;
        for (std::size_t j = 0; same && j < kBatch; ++j)
          same = bit_equal(ys[j], expected[0][i]);
        rep.check(same, "run_batch item differs from run at layer " +
                            tasd.layer(i).name);
        return ms;
      };
      const auto start = Clock::now();
      while (layer_ms[i].size() < 3 ||
             ms_between(start, Clock::now()) < budget_s * 1e3 / layers)
        layer_ms[i].push_back(call());
      sum += median(layer_ms[i]);
    }
    pass_ms.push_back(sum);
  }
  tr.record("batch16", phase_start, Clock::now(), id, root);
  return pass_ms;
}

void run_workload(const std::string& workload, const WorkloadSpec& spec,
                  std::uint64_t seed, double seconds, Report& rep, Tracer& tr,
                  const std::string& workdir) {
  const std::uint64_t root = tr.new_id();
  const auto root_start = Clock::now();
  rt::CompileOptions opt;  // "auto" kernels, process-default pool
  std::vector<dnn::LayerBinding> bindings;
  Artifacts a = set_up(spec, opt, rep, tr, root, bindings);
  const auto& tasd = *a.tasd;
  const auto& dense = *a.dense;

  const std::string path = workdir + "/" + workload + ".tasdart";
  save_and_load(tasd, opt, path, rep, tr, root, seed);

  if (tr.on()) trace_set_up(spec, opt, bindings, rep, tr, root);
  bindings.clear();
  bindings.shrink_to_fit();

  const auto inputs = make_inputs(spec, tasd, seed);
  const ForwardRunner fwd{spec, inputs, tr};
  const auto expected = verified_outputs(spec, tasd, fwd, rep);
  rep.set("approx_rel_err", approx_rel_err(expected, dense, fwd), "1");

  plan_cache().reset_stats();
  const std::size_t layers = tasd.layer_count();
  LayerSamples ls{std::vector<std::vector<double>>(layers),
                  std::vector<std::vector<double>>(layers),
                  std::vector<std::vector<double>>(layers)};
  std::size_t iter = 0;
  // One measured iteration: TASD and dense forwards in alternating order,
  // the TASD output checked after its timing. A traced iteration runs
  // layer by layer inside spans; an untraced one records nothing but the
  // wall time.
  auto iteration = [&](bool traced, std::vector<double>& t_ms,
                       std::vector<double>& d_ms) {
    const std::size_t which = spec.chain ? iter % inputs.size() : 0;
    auto pass = [&](const rt::CompiledNetwork& net, const char* name,
                    std::vector<std::vector<double>>& per_layer) {
      std::vector<MatrixF> y;
      if (!traced) {
        const double ms =
            time_ms([&] { y = fwd.run(net, which, 0, false, nullptr); });
        return std::make_pair(ms, std::move(y));
      }
      const std::uint64_t id = tr.new_id();
      const double ms = tr.timed(
          name, root,
          [&] { y = fwd.run(net, which, id, true, per_layer.data()); }, id);
      return std::make_pair(ms, std::move(y));
    };
    auto tasd_pass = [&] {
      auto [ms, y] = pass(tasd, "forward", ls.nm_or_dense);
      t_ms.push_back(ms);
      bool same = y.size() == expected[which].size();
      for (std::size_t o = 0; same && o < y.size(); ++o)
        same = bit_equal(y[o], expected[which][o]);
      rep.check(same, "TASD forward output differs from the verified one");
    };
    auto dense_pass = [&] {
      d_ms.push_back(pass(dense, "forward(dense)", ls.baseline).first);
    };
    if (iter % 2 == 0) {
      tasd_pass();
      dense_pass();
    } else {
      dense_pass();
      tasd_pass();
    }
    ++iter;
  };

  // Warm both artifacts untimed, then measure.
  {
    std::vector<double> t, d;
    const auto start = Clock::now();
    while (iter < 2 || ms_between(start, Clock::now()) < 300.0)
      iteration(false, t, d);
  }
  // The untraced run gives the forwards 70 % of the budget and the
  // batch-16 forwards 30 %. The traced run splits the forwards' share
  // between an untraced and a traced loop and gives the serving phase
  // half of the batch share. Each forward loop also runs on (up to 3x its
  // budget) until its sample count supports a p90.
  auto measure = [&](bool traced, double budget_s, const std::string& tag) {
    std::vector<double> t, d;
    const auto start = Clock::now();
    const double cap_ms = budget_s * 3e3;
    while (ms_between(start, Clock::now()) < budget_s * 1e3 ||
           (t.size() < 100 && ms_between(start, Clock::now()) < cap_ms))
      iteration(traced, t, d);
    rep.samples[tag + "forward_ms"] = std::move(t);
    rep.samples[tag + "dense_forward_ms"] = std::move(d);
  };
  const double forward_s = 0.7 * seconds;
  const double batch_s = 0.3 * seconds;
  measure(false, tr.on() ? forward_s / 2 : forward_s, "");
  if (tr.on()) measure(true, forward_s / 2, "traced.");
  rep.samples[tr.on() ? "traced.batch16_ms" : "batch16_ms"] =
      batch16_phase(spec, tasd, inputs, expected,
                    tr.on() ? batch_s / 2 : batch_s, rep, tr, root, ls.batch16);
  const auto exec_decomps = plan_cache().stats().decompositions;
  rep.check(exec_decomps == 0, "execution decomposed " +
                                   std::to_string(exec_decomps) + " times");

  const auto& fwd_ms = rep.samples["forward_ms"];
  rep.set("setup_s", median(rep.samples["setup_s"]), "s");
  rep.set("load_s", median(rep.samples["load_s"]), "s");
  rep.set("forward_ms_p50", median(fwd_ms), "ms");
  // p90 per block of 100 forwards (ten beyond each block's p90), median
  // over blocks: a shared host's stalls confined to a few blocks do not
  // decide the tail.
  rep.set("forward_ms_p90", perfbench::blocked_percentile(fwd_ms, 90.0, 100),
          "ms");
  rep.set("dense_forward_ms_p50", median(rep.samples["dense_forward_ms"]),
          "ms");
  if (!tr.on()) {
    rep.set("batch16_qps", kBatch * 1e3 / median(rep.samples["batch16_ms"]),
            "items/s");
    std::filesystem::remove(path);
    tr.record(workload, root_start, Clock::now(), root, 0);
    return;
  }

  // ---- per-layer metrics of the traced run ----
  double nm_ms = 0.0, dense_ms = 0.0, base_ms = 0.0, b_nm = 0.0, b_dense = 0.0;
  double nm_flop = 0.0, nm_bytes = 0.0, base_flop = 0.0, base_bytes = 0.0;
  for (std::size_t i = 0; i < layers; ++i) {
    const auto& l = tasd.layer(i);
    const double n = spec.chain ? static_cast<double>(spec.input_cols)
                                : static_cast<double>(l.n);
    const double m = static_cast<double>(l.m), k = static_cast<double>(l.k);
    const double t = median(ls.nm_or_dense[i]);
    const double dense_flop = 2.0 * m * k * n;
    const double act_bytes = 4.0 * (k * n + m * n);
    base_ms += median(ls.baseline[i]);
    base_flop += dense_flop;
    base_bytes += 4.0 * m * k + act_bytes;
    if (l.plan) {
      nm_ms += t;
      nm_flop += 2.0 * static_cast<double>(l.plan->nnz()) * n;
      nm_bytes += static_cast<double>(l.plan->storage_bytes()) + act_bytes;
      b_nm += median(ls.batch16[i]);
    } else {
      dense_ms += t;
      b_dense += median(ls.batch16[i]);
    }
  }
  const double untraced_p50 = median(fwd_ms);
  artifact_layer_metrics(tasd, rep);
  rep.layer("kernels.nm_ms", nm_ms, "ms");
  rep.layer("kernels.dense_ms", dense_ms, "ms");
  rep.layer("kernels.dense_baseline_ms", base_ms, "ms");
  rep.layer("kernels.batch16_nm_ms", b_nm, "ms");
  rep.layer("kernels.batch16_dense_ms", b_dense, "ms");
  rep.layer("kernels.nm_gflops", nm_ms > 0 ? nm_flop / nm_ms / 1e6 : 0.0,
            "GFLOP/s");
  rep.layer("kernels.dense_gflops", base_flop / base_ms / 1e6, "GFLOP/s");
  rep.layer("kernels.nm_gbytes_computed",
            nm_ms > 0 ? nm_bytes / nm_ms / 1e6 : 0.0, "GB/s");
  rep.layer("kernels.dense_gbytes_computed", base_bytes / base_ms / 1e6,
            "GB/s");
  rep.layer("kernels.residual_ms", untraced_p50 - (nm_ms + dense_ms), "ms");
  rep.layer("kernels.speedup_vs_dense",
            median(rep.samples["dense_forward_ms"]) / untraced_p50, "x");
  rep.layer("trace.overhead_ms",
            median(rep.samples["traced.forward_ms"]) - untraced_p50, "ms");

  // Both artifacts go before the engine loads its own copy.
  a.tasd.reset();
  a.dense.reset();
  serve_phase(spec, path, seed, batch_s / 2, inputs, expected, rep, tr, root);
  std::filesystem::remove(path);
  tr.record(workload, root_start, Clock::now(), root, 0);
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
  std::string rev = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--workdir") {
      a.workdir = val;
    } else if (key == "--rev") {
      a.rev = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload || !have_seed || !(a.seconds > 0.0))
    throw std::invalid_argument(
        "usage: perfbench_harness --workload W --seed S --seconds T "
        "--trace 0|1 --workdir DIR [--rev REV]");
  return a;
}

void write_result_file(const std::string& path, const Args& args,
                       const Report& rep) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), args.trace ? 1 : 0);
  std::fprintf(f, "\"host\":{");
  bool first = true;
  for (const auto& [k, v] : rep.host) {
    std::fprintf(f, "%s\"%s\":\"%s\"", first ? "" : ",", k.c_str(),
                 json_escape(v).c_str());
    first = false;
  }
  std::fprintf(f, "},\n\"checks\":%llu,\"misses\":%llu,\"miss_notes\":[",
               static_cast<unsigned long long>(rep.checks),
               static_cast<unsigned long long>(rep.misses));
  for (std::size_t i = 0; i < rep.miss_notes.size(); ++i)
    std::fprintf(f, "%s\"%s\"", i ? "," : "",
                 json_escape(rep.miss_notes[i]).c_str());
  std::fprintf(f, "],\n\"metrics\":{");
  first = true;
  for (const auto* group : {&rep.metrics, &rep.per_layer})
    for (const auto& [k, m] : *group) {
      std::fprintf(f, "%s\"%s\":%s", first ? "" : ",", k.c_str(),
                   json_number(m.value).c_str());
      first = false;
    }
  std::fprintf(f, "},\n\"samples\":{");
  first = true;
  for (const auto& [k, v] : rep.samples) {
    std::fprintf(f, "%s\n\"%s\":%s", first ? "" : ",", k.c_str(),
                 json_array(v).c_str());
    first = false;
  }
  std::fprintf(f, "},\n\"serving\":%s}\n",
               rep.serving_detail.empty() ? "null"
                                          : rep.serving_detail.c_str());
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    std::filesystem::create_directories(args.workdir);
    Tracer tr(args.trace);
    Report rep;
    const WorkloadSpec spec = make_spec(args.workload, args.seed);

    run_workload(args.workload, spec, args.seed, args.seconds, rep, tr,
                 args.workdir);
    rep.set("peak_rss_mb", peak_rss_mb(), "MB");

    // Host and binding record (kernel names and pool size come from the
    // compiled artifact): a baseline from another host or binding must not
    // compare silently.
    rep.host["cpu_signature"] = cpu_signature();
    rep.host["nproc"] = std::to_string(nproc());
    rep.host["rev"] = args.rev;
    rep.host["seed"] = std::to_string(args.seed);

    const std::string stem =
        args.workdir + "/" + args.workload + "-" + std::to_string(args.seed);
    if (args.trace) {
      const std::string path = stem + ".trace.json";
      if (!tr.write_chrome(path))
        throw std::runtime_error("cannot write " + path);
      std::fprintf(stderr, "perfbench: %zu spans -> %s\n", tr.span_count(),
                   path.c_str());
    }
    write_result_file(stem + (args.trace ? ".traced" : "") + ".result.json",
                      args, rep);
    for (const auto& [k, v] : rep.host)
      std::fprintf(stderr, "perfbench: host %s = %s\n", k.c_str(), v.c_str());

    const auto counted =
        perfbench::count_failures(rep.checks, rep.misses, rep.operating);
    std::string line = "{\"correct\": " +
                       std::string(rep.misses == 0 ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(counted.attempted) +
                       ", \"failed\": " + std::to_string(counted.failed) +
                       ", \"metrics\": {";
    bool first = true;
    for (const auto& [k, m] : args.trace ? rep.per_layer : rep.metrics) {
      line += std::string(first ? "" : ", ") + "\"" + k + "\": {\"value\": " +
              json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    }
    std::printf("%s}}\n", line.c_str());
    return rep.misses == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 2;
  }
}
