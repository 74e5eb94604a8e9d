// perfbench-driver -- runs one benchmark workload and writes its raw
// measurements as one JSON document.  perfbench/run.py builds it, runs
// it, re-verifies the bundles it wrote with symcex-verify, and turns the
// samples into the metrics BENCHMARK.json names.
//
//   perfbench-driver --workload W --seed N --seconds S --trace 0|1
//                    --root DIR --work DIR --serve-bin PATH
//   perfbench-driver --host-probe N    (prints the host probe's median ms)
//
// Workloads (perfbench/NOTES.md says why each exists):
//   deep-trace                  one job at a time, in this process: the
//                               full smv_check path per job
//   serve-repeat                closed-loop clients against one
//                               symcex-serve daemon
//
// Untraced runs (--trace 0) time the job loop for S seconds after an
// untimed set-up, and repeat the set-up between stretches of the loop.
// Traced runs (--trace 1) alternate untraced and traced passes over the
// same work, record a span around every call into a layer, and write the
// first traced pass's spans as Chrome trace-event JSON.
//
// Everything outside the timed loops -- the verdict oracle, the explicit
// cross-check, the separate certification pass and the workload census --
// runs after the clock stops.

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analyze/analyze.hpp"
#include "certify/certify.hpp"
#include "core/checker.hpp"
#include "core/explain.hpp"
#include "ctl/formula.hpp"
#include "diag/json.hpp"
#include "evidence/evidence.hpp"
#include "explicit/explicit_checker.hpp"
#include "explicit/explicit_graph.hpp"
#include "families.hpp"
#include "serve/serve.hpp"
#include "smv/smv.hpp"
#include "version.hpp"

extern char** environ;

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// FNV-1a over bytes: the bundle digest the determinism check compares.
std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h = 1469598103934665603ull) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  std::uint32_t job;
  int parent;  ///< index into Tracer::spans, -1 for a root
  Clock::time_point start;
  Clock::time_point end;
};

/// In-memory span recorder.  Off (untraced runs), it records nothing;
/// every Scope still times its call, because the untraced job loop needs
/// the layer sums for verdict_ms / evidence_ms.
class Tracer {
 public:
  bool on = false;
  std::vector<Span> spans;
  std::vector<int> stack;
  std::vector<std::string> job_names;  ///< by job id, for the trace file

  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::uint32_t job)
        : t_(t), start_(Clock::now()) {
      if (t_.on) {
        index_ = static_cast<int>(t_.spans.size());
        t_.spans.push_back({name, job, t_.stack.empty() ? -1 : t_.stack.back(),
                            start_, start_});
        t_.stack.push_back(index_);
      }
    }
    /// Close the span and return its duration in ms.
    double close() {
      const auto end = Clock::now();
      if (index_ >= 0) {
        t_.spans[static_cast<std::size_t>(index_)].end = end;
        t_.stack.pop_back();
        index_ = -1;
      }
      return ms_between(start_, end);
    }
    ~Scope() {
      if (index_ >= 0) close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    Clock::time_point start_;
    int index_ = -1;
  };

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  void write_chrome(std::ostream& os) const {
    const auto origin = spans.empty() ? Clock::time_point{} : spans.front().start;
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
         << std::chrono::duration<double, std::micro>(s.start - origin).count()
         << ",\"dur\":"
         << std::chrono::duration<double, std::micro>(s.end - s.start).count()
         << ",\"args\":{\"job\":" << s.job << ",\"model\":\""
         << (s.job < job_names.size() ? job_names[s.job] : "") << "\",\"id\":" << i
         << ",\"parent\":" << s.parent << "}}";
    }
    os << "\n]}\n";
  }

  /// Self time per span name: duration minus the children's durations.
  [[nodiscard]] std::map<std::string, double> self_ms() const {
    std::vector<double> child(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += ms_between(s.start, s.end);
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      out[spans[i].name] += ms_between(spans[i].start, spans[i].end) - child[i];
    }
    return out;
  }
};

// ---------------------------------------------------------------------------
// Failure causes and counters
// ---------------------------------------------------------------------------

const char* const kCauses[] = {"wrong_verdict", "unknown", "cert_rejected",
                               "exception", "daemon_lost"};

struct Failures {
  std::map<std::string, std::uint64_t> by_cause;
  std::vector<std::string> notes;  ///< first few failures, named

  void add(const std::string& cause, const std::string& what) {
    ++by_cause[cause];
    if (notes.size() < 20) notes.push_back(cause + ": " + what);
  }
  [[nodiscard]] std::uint64_t total() const {
    std::uint64_t n = 0;
    for (const auto& [cause, count] : by_cause) n += count;
    return n;
  }
};

/// Deterministic per-layer counts plus layer wall times, summed over jobs.
struct Layers {
  std::map<std::string, double> sum;
  void add(const std::string& name, double v) { sum[name] += v; }
};

/// Do two Layers disagree on any count (any metric but the `_ms` times)?
bool counts_differ(const Layers& a, const Layers& b) {
  const auto counts = [](const Layers& l) {
    std::map<std::string, double> c;
    for (const auto& [name, v] : l.sum) {
      if (!name.ends_with("_ms")) c[name] = v;
    }
    return c;
  };
  return counts(a) != counts(b);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

/// Keeps the host probe's result observable.
volatile std::uint64_t probe_sink = 0;

/// A fixed computation that uses no SymCeX code: 2^18 steps of a pointer
/// chase over 8 MiB (a random cyclic permutation) plus FNV-1a over
/// 4 MiB.  Its time follows the host's speed alone, so it tells a slower
/// host from a slower program.  run.py times it before and after each
/// run (with --host-probe N) and prints it with the provenance, never as
/// a metric.
double host_probe_ms() {
  static const std::vector<std::uint32_t> next = [] {
    std::vector<std::uint32_t> v(1u << 21);
    std::iota(v.begin(), v.end(), 0u);
    std::mt19937 rng(12345);
    for (std::size_t i = v.size() - 1; i > 0; --i) {  // Sattolo: one cycle
      std::swap(v[i], v[std::uniform_int_distribution<std::size_t>(0, i - 1)(rng)]);
    }
    return v;
  }();
  static const std::string bytes(1u << 22, 'x');
  const auto t0 = Clock::now();
  std::uint32_t at = 0;
  for (std::size_t i = 0; i < (1u << 18); ++i) at = next[at];
  probe_sink = fnv1a(bytes, at);
  return ms_between(t0, Clock::now());
}

// ---------------------------------------------------------------------------
// One in-process job: the smv_check path
// ---------------------------------------------------------------------------

struct SpecResult {
  bool holds = false;
  std::size_t trace_states = 0;  ///< 0 when the spec has no trace
  std::string bundle;
};

struct JobRun {
  double job_ms = 0, verdict_ms = 0, evidence_ms = 0;
  std::vector<SpecResult> specs;
  bool threw = false;
  std::string error;
};

/// Runs one job exactly as examples/smv_check does (compile, reachable
/// set, then per SPEC: check, explain, bundle with the SMV domain
/// annotations, JSON), with a span around each call.  `layers`, when
/// given, receives the job's counters.
JobRun run_job(const Job& job, std::uint32_t id, Tracer& tracer,
               Layers* layers) {
  using namespace symcex;
  JobRun run;
  Tracer::Scope job_span(tracer, "job", id);
  try {
    Tracer::Scope compile_span(tracer, "smv.compile", id);
    smv::SmvModel model = smv::compile(job.source);
    const double compile_ms = compile_span.close();
    auto& system = model.system();

    Tracer::Scope reach_span(tracer, "ts.reachable", id);
    (void)system.count_states(system.reachable());
    const double reach_ms = reach_span.close();

    core::Checker checker(system, {.threads = 1, .model_name = job.name});
    core::Explainer explainer(checker);
    run.verdict_ms = compile_ms;
    double check_ms = 0, explain_ms = 0, build_ms = 0, json_ms = 0;
    core::CheckStats check_counts;
    std::size_t trace_states = 0, bundle_bytes = 0;
    for (std::size_t i = 0; i < model.specs().size(); ++i) {
      const auto& spec = model.specs()[i];
      const core::CheckStats before = checker.stats();
      Tracer::Scope check_span(tracer, "core.check", id);
      const core::CheckOutcome outcome = checker.check(spec);
      check_ms += check_span.close();
      const core::CheckStats after = checker.stats();
      check_counts.preimage_calls += after.preimage_calls - before.preimage_calls;
      check_counts.eu_iterations += after.eu_iterations - before.eu_iterations;
      check_counts.eg_iterations += after.eg_iterations - before.eg_iterations;
      check_counts.faireg_reuse_hits +=
          after.faireg_reuse_hits - before.faireg_reuse_hits;

      Tracer::Scope explain_span(tracer, "core.explain", id);
      core::Explanation result = explainer.explain(spec);
      explain_ms += explain_span.close();
      if (outcome.verdict == core::Verdict::kUnknown ||
          result.holds != (outcome.verdict == core::Verdict::kTrue)) {
        throw std::logic_error("check and explain disagree on " +
                               model.spec_texts()[i]);
      }

      Tracer::Scope build_span(tracer, "evidence.build", id);
      evidence::BundleBuilder bundle = evidence::from_explanation(
          system, job.name, model.spec_texts()[i], result);
      for (const auto& var : model.variables()) {
        if (var.is_boolean) continue;
        std::string domain;
        for (const auto& value : var.domain) {
          if (!domain.empty()) domain += ", ";
          domain += value.to_string();
        }
        bundle.add_annotation("domain:" + var.name, domain);
      }
      build_ms += build_span.close();

      Tracer::Scope json_span(tracer, "evidence.json", id);
      SpecResult sr;
      sr.bundle = bundle.to_json();
      json_ms += json_span.close();

      sr.holds = result.holds;
      if (result.trace) {
        sr.trace_states = result.trace->prefix.size() + result.trace->cycle.size();
      }
      trace_states += sr.trace_states;
      bundle_bytes += sr.bundle.size();
      run.specs.push_back(std::move(sr));
    }
    run.verdict_ms += check_ms;
    run.evidence_ms = explain_ms + build_ms + json_ms;
    if (layers != nullptr) {
      const bdd::ManagerStats& b = system.manager().stats();
      std::uint64_t applies = 0;
      for (const std::uint64_t n : b.apply_calls) applies += n;
      const auto& w = explainer.witnesses().stats();
      Layers& l = *layers;
      l.add("smv.compile_ms", compile_ms);
      l.add("smv.state_bits", static_cast<double>(system.num_state_vars()));
      l.add("ts.reachable_ms", reach_ms);
      l.add("bdd.apply_calls", static_cast<double>(applies));
      l.add("bdd.cache_lookups", static_cast<double>(b.cache_lookups));
      l.add("bdd.cache_hits", static_cast<double>(b.cache_hits));
      l.add("bdd.nodes_created", static_cast<double>(b.unique_misses));
      l.add("bdd.peak_live_nodes", static_cast<double>(b.peak_nodes));
      l.add("bdd.gc_runs", static_cast<double>(b.gc_runs));
      l.add("core.check_ms", check_ms);
      l.add("core.preimage_calls", static_cast<double>(check_counts.preimage_calls));
      l.add("core.eu_iterations", static_cast<double>(check_counts.eu_iterations));
      l.add("core.eg_iterations", static_cast<double>(check_counts.eg_iterations));
      l.add("core.faireg_reuse_hits",
            static_cast<double>(check_counts.faireg_reuse_hits));
      l.add("core.explain_ms", explain_ms);
      l.add("core.witness_ring_steps", static_cast<double>(w.ring_steps));
      l.add("core.witness_restarts", static_cast<double>(w.restarts));
      l.add("core.trace_states", static_cast<double>(trace_states));
      l.add("evidence.build_ms", build_ms);
      l.add("evidence.json_ms", json_ms);
      l.add("evidence.bundle_bytes", static_cast<double>(bundle_bytes));
    }
  } catch (const std::exception& e) {
    run.threw = true;
    run.error = e.what();
  }
  run.job_ms = job_span.close();
  return run;
}

// ---------------------------------------------------------------------------
// Oracles, certification and census (all outside the timed region)
// ---------------------------------------------------------------------------

/// Compare a job run with the expected verdicts; record failures.
/// Returns true when the run is correct.
bool judge(const Job& job, const JobRun& run, Failures& failures) {
  if (run.threw) {
    failures.add("exception", job.name + ": " + run.error);
    return false;
  }
  if (run.specs.size() != job.expected.size()) {
    failures.add("exception", job.name + ": " + std::to_string(run.specs.size()) +
                                  " specs, expected " +
                                  std::to_string(job.expected.size()));
    return false;
  }
  bool ok = true;
  for (std::size_t i = 0; i < run.specs.size(); ++i) {
    if (run.specs[i].holds != job.expected[i]) {
      failures.add("wrong_verdict", job.name + " spec " + std::to_string(i));
      ok = false;
    }
  }
  return ok;
}

/// src/explicit's verdicts, when the model has at most `max_states`
/// reachable states; nullopt when it is too large.
std::optional<std::vector<bool>> explicit_verdicts(const Job& job,
                                                  std::size_t max_states) {
  using namespace symcex;
  smv::SmvModel model = smv::compile(job.source);
  auto& system = model.system();
  if (system.count_states(system.reachable()) > static_cast<double>(max_states)) {
    return std::nullopt;
  }
  const enumerative::Enumerated e = enumerative::enumerate(system, max_states);
  enumerative::Checker checker(e.graph);
  std::vector<bool> out;
  for (const auto& spec : model.specs()) out.push_back(checker.holds(spec));
  return out;
}

struct Census {
  std::vector<double> state_bits, reachable, fairness, cone_outside_share;
  std::vector<double> trace_lengths;

  void add_model(const Job& job) {
    using namespace symcex;
    smv::SmvModel model = smv::compile(job.source);
    auto& system = model.system();
    state_bits.push_back(static_cast<double>(system.num_state_vars()));
    reachable.push_back(system.count_states(system.reachable()));
    fairness.push_back(static_cast<double>(system.fairness().size()));
    const analyze::DepGraph graph = analyze::build_dep_graph(system);
    core::Checker checker(system, {.threads = 1});
    for (const auto& spec : model.specs()) {
      std::vector<bdd::Bdd> seeds;
      for (const std::string& atom : ctl::atoms(spec)) {
        seeds.push_back(checker.resolve_atom(atom));
      }
      const analyze::Cone cone = analyze::cone_of_influence(system, graph, seeds);
      cone_outside_share.push_back(static_cast<double>(cone.dropped.size()) /
                                   static_cast<double>(system.num_state_vars()));
    }
  }

  /// Trace lengths of every SPEC of `jobs` (one quiet pass).
  void add_trace_lengths(const std::vector<Job>& jobs) {
    Tracer quiet;
    for (std::uint32_t j = 0; j < jobs.size(); ++j) {
      for (const SpecResult& s : run_job(jobs[j], j, quiet, nullptr).specs) {
        if (s.trace_states > 0) {
          trace_lengths.push_back(static_cast<double>(s.trace_states));
        }
      }
    }
  }

  void write(symcex::diag::JsonWriter& w) const {
    const auto dist = [&w](const char* name, std::vector<double> v) {
      std::sort(v.begin(), v.end());
      w.key(name);
      w.begin_object();
      w.member("n", static_cast<std::uint64_t>(v.size()));
      if (!v.empty()) {
        w.member("min", v.front());
        w.member("p50", v[v.size() / 2]);
        w.member("max", v.back());
      }
      w.end_object();
    };
    dist("state_bits", state_bits);
    dist("reachable_states", reachable);
    dist("fairness_constraints", fairness);
    dist("cone_outside_share", cone_outside_share);
    dist("trace_states", trace_lengths);
  }
};

/// Resident-set high-water mark of a process, from /proc/<pid>/status.
double peak_rss_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Output {
  std::map<std::string, std::vector<double>> samples;  ///< metric -> samples
  std::map<std::string, double> values;                ///< single values
  Layers layers;
  std::map<std::string, double> self_ms;
  std::map<std::string, std::string> digests;  ///< determinism check
  Failures failures;
  std::uint64_t attempted = 0;
  std::vector<std::string> bundle_files;
  Census census;
  std::map<std::string, double> census_extra;

  void write(std::ostream& os) const {
    symcex::diag::JsonWriter w(os);
    w.begin_object();
    w.member("compiler", std::string(symcex::version::compiler()));
    w.member("build_type", std::string(PERFBENCH_BUILD_TYPE));
    w.member("attempted", attempted);
    w.member("failed", failures.total());
    w.key("failures");
    w.begin_object();
    for (const char* cause : kCauses) {
      const auto it = failures.by_cause.find(cause);
      w.member(cause, it == failures.by_cause.end() ? std::uint64_t{0} : it->second);
    }
    w.end_object();
    w.key("failure_notes");
    w.begin_array();
    for (const auto& n : failures.notes) w.value(n);
    w.end_array();
    w.key("samples");
    w.begin_object();
    for (const auto& [name, v] : samples) {
      w.key(name);
      w.begin_array();
      for (const double x : v) w.value(x);
      w.end_array();
    }
    w.end_object();
    w.key("values");
    w.begin_object();
    for (const auto& [name, v] : values) w.member(name, v);
    w.end_object();
    w.key("layers");
    w.begin_object();
    for (const auto& [name, v] : layers.sum) w.member(name, v);
    w.end_object();
    w.key("self_ms");
    w.begin_object();
    for (const auto& [name, v] : self_ms) w.member(name, v);
    w.end_object();
    w.key("digests");
    w.begin_object();
    for (const auto& [name, v] : digests) w.member(name, v);
    w.end_object();
    w.key("bundles");
    w.begin_array();
    for (const auto& f : bundle_files) w.value(f);
    w.end_array();
    w.key("census");
    w.begin_object();
    census.write(w);
    for (const auto& [name, v] : census_extra) w.member(name, v);
    w.end_object();
    w.end_object();
    os << "\n";
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root = ".";
  std::string work = ".";
  std::string serve_bin;
  int probes = 0;  ///< > 0: only time the host probe this often
};

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 7;
/// Untraced/traced pass pairs per traced run.
constexpr int kTraceRepeats = 3;

/// Write each distinct bundle once, for symcex-verify.
void write_bundles(const std::map<std::string, std::string>& bundles,
                   const std::string& dir, Output& out) {
  std::size_t n = 0;
  for (const auto& [key, bytes] : bundles) {
    const std::string path = dir + "/bundle-" + std::to_string(n++) + ".json";
    std::ofstream f(path, std::ios::binary);
    f << bytes;
    if (!f) throw std::runtime_error("cannot write " + path);
    out.bundle_files.push_back(path);
  }
}

/// Certify every trace again through a standalone TraceCertifier (the
/// certify layer's own cost; from_explanation certifies internally too).
void certify_pass(const std::vector<Job>& jobs, Output& out) {
  using namespace symcex;
  for (const Job& job : jobs) {
    smv::SmvModel model = smv::compile(job.source);
    auto& system = model.system();
    core::Checker checker(system, {.threads = 1});
    core::Explainer explainer(checker);
    certify::TraceCertifier certifier(system);
    for (std::size_t i = 0; i < model.specs().size(); ++i) {
      const core::Explanation result = explainer.explain(model.specs()[i]);
      if (!result.trace) continue;
      const auto t0 = Clock::now();
      const certify::Certificate cert = certifier.certify_path(*result.trace);
      out.layers.add("certify.path_ms", ms_between(t0, Clock::now()));
      out.layers.add("certify.obligations",
                     static_cast<double>(cert.obligations.size()));
      if (!cert.ok()) {
        out.failures.add("cert_rejected", job.name + " spec " + std::to_string(i) +
                                              ": " + cert.to_string());
      }
    }
  }
}

// ---------------------------------------------------------------------------
// In-process workloads
// ---------------------------------------------------------------------------

void run_in_process(const Args& args, Output& out) {
  std::vector<Job> jobs;
  Tracer untraced;
  // Reference bundles from the first warm-up pass, by keys[job][spec];
  // every later pass must reproduce them byte for byte.
  std::vector<std::vector<std::string>> keys;
  std::map<std::string, std::string> reference;

  // One set-up: generate the inputs and run the untimed warm-up pass.
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    jobs = workload_jobs(args.workload, args.seed);
    const bool first = keys.empty();
    for (std::uint32_t j = 0; j < jobs.size(); ++j) {
      JobRun run = run_job(jobs[j], j, untraced, nullptr);
      if (first) keys.emplace_back();
      for (std::size_t i = 0; i < run.specs.size(); ++i) {
        if (first) {
          keys[j].push_back(jobs[j].name + "#" + std::to_string(j) + "#" +
                            std::to_string(i));
          reference[keys[j][i]] = std::move(run.specs[i].bundle);
        } else if (i >= keys[j].size() ||
                   run.specs[i].bundle != reference[keys[j][i]]) {
          out.failures.add("cert_rejected", jobs[j].name +
                                                ": bundle bytes differ between "
                                                "set-ups");
        }
      }
    }
    out.samples["setup_s"].push_back(ms_between(t0, Clock::now()) / 1000.0);
  };
  set_up();

  // The served form of the same answers: a verdict cache holding every
  // bundle, written after each job (miss) and read back (hit).
  symcex::serve::VerdictCache cache(reference.size() + 1, "");

  const auto check_run = [&](std::uint32_t j, const JobRun& run) {
    if (!judge(jobs[j], run, out.failures)) return false;
    for (std::size_t i = 0; i < run.specs.size(); ++i) {
      if (run.specs[i].bundle != reference[keys[j][i]]) {
        out.failures.add("cert_rejected",
                         keys[j][i] + ": bundle bytes differ between passes");
        return false;
      }
    }
    return true;
  };

  const auto serve_answers = [&](std::uint32_t j, const JobRun& run,
                                 double& store_ms, double& lookup_ms) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < run.specs.size(); ++i) {
      symcex::serve::CacheEntry entry;
      entry.verdict = run.specs[i].holds ? "true" : "false";
      entry.spec = std::to_string(i);
      entry.bundle = run.specs[i].bundle;
      cache.store(keys[j][i], std::move(entry));
    }
    const auto t1 = Clock::now();
    bool all_hit = true;
    for (std::size_t i = 0; i < run.specs.size(); ++i) {
      all_hit &= cache.lookup(keys[j][i], std::to_string(i)).has_value();
    }
    const auto t2 = Clock::now();
    store_ms = ms_between(t0, t1);
    lookup_ms = ms_between(t1, t2);
    return all_hit;
  };

  if (!args.trace) {
    std::vector<double>& job_ms = out.samples["job_ms"];
    std::vector<double>& verdict_ms = out.samples["verdict_ms"];
    std::vector<double>& evidence_ms = out.samples["evidence_ms"];
    std::vector<double>& hit_ms = out.samples["hit_ms"];
    std::vector<double>& miss_ms = out.samples["miss_ms"];
    std::uint64_t ok = 0;
    double busy_ms = 0;
    int setups_done = 1;
    // Whole passes only, so every run samples the same job mix.  The
    // remaining set-ups are spread over the run (outside the job clock),
    // so their median does not rest on one stretch of machine speed.
    while (busy_ms < args.seconds * 1000.0) {
      if (busy_ms >= args.seconds * 1000.0 * setups_done / kSetupRepeats) {
        set_up();
        ++setups_done;
      }
      for (std::uint32_t j = 0; j < jobs.size(); ++j) {
        const JobRun run = run_job(jobs[j], j, untraced, nullptr);
        ++out.attempted;
        double store_ms = 0, lookup_ms = 0;
        const bool served = !run.threw && serve_answers(j, run, store_ms, lookup_ms);
        busy_ms += run.job_ms;
        if (!check_run(j, run)) continue;
        if (!served) {
          out.failures.add("exception", jobs[j].name + ": cache lost an answer");
          continue;
        }
        ++ok;
        job_ms.push_back(run.job_ms);
        verdict_ms.push_back(run.verdict_ms);
        evidence_ms.push_back(run.evidence_ms);
        miss_ms.push_back(run.job_ms + store_ms);
        hit_ms.push_back(lookup_ms);
      }
    }
    while (setups_done++ < kSetupRepeats) set_up();
    out.values["jobs_per_s"] = static_cast<double>(ok) / (busy_ms / 1000.0);
    out.values["ok"] = static_cast<double>(ok);
  } else {
    // Untraced and traced passes over the same jobs, alternating, so the
    // ratio of their medians is the tracing overhead.  Every traced pass
    // must reproduce the first one's counts; the first one is reported.
    std::vector<double> untraced_ms, traced_ms;
    Tracer tracer;
    for (int rep = 0; rep < kTraceRepeats; ++rep) {
      double u = 0, t = 0;
      for (std::uint32_t j = 0; j < jobs.size(); ++j) {
        u += run_job(jobs[j], j, untraced, nullptr).job_ms;
      }
      Tracer pass;
      pass.on = true;
      for (const Job& job : jobs) pass.job_names.push_back(job.name);
      Layers layers;
      std::uint64_t digest = fnv1a("");
      for (std::uint32_t j = 0; j < jobs.size(); ++j) {
        const JobRun run = run_job(jobs[j], j, pass, &layers);
        t += run.job_ms;
        ++out.attempted;
        check_run(j, run);
        for (const SpecResult& sr : run.specs) digest = fnv1a(sr.bundle, digest);
      }
      untraced_ms.push_back(u);
      traced_ms.push_back(t);
      if (rep == 0) {
        out.layers = layers;
        out.digests["bundles"] = hex(digest);
        tracer = std::move(pass);
      } else if (counts_differ(layers, out.layers) || hex(digest) != out.digests["bundles"]) {
        out.failures.add("exception", "traced pass " + std::to_string(rep) +
                                          " did not repeat the first one's counts");
      }
    }
    out.values["untraced_pass_ms"] = median(untraced_ms);
    out.values["traced_pass_ms"] = median(traced_ms);
    out.self_ms = tracer.self_ms();
    std::ofstream chrome(args.work + "/trace-" + args.workload + ".json");
    tracer.write_chrome(chrome);
    certify_pass(jobs, out);
  }

  out.values["peak_rss_mb"] = peak_rss_mb("self");

  // After the clock: oracle cross-check, census, bundles for symcex-verify.
  std::set<std::string> seen;
  for (std::uint32_t j = 0; j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    if (!seen.insert(job.name).second) continue;
    if (const auto explicit_result = explicit_verdicts(job, 4096)) {
      out.census_extra["explicit_checked_models"] += 1;
      if (*explicit_result != job.expected) {
        out.failures.add("wrong_verdict", job.name + ": src/explicit disagrees "
                                                     "with the expected verdicts");
      }
    }
    out.census.add_model(job);
  }
  out.census.add_trace_lengths(jobs);
  std::map<std::string, std::string> distinct;
  for (const auto& [key, bytes] : reference) distinct.emplace(hex(fnv1a(bytes)), bytes);
  write_bundles(distinct, args.work, out);
}

// ---------------------------------------------------------------------------
// serve-repeat
// ---------------------------------------------------------------------------

/// One client connection and one daemon worker.  run.py runs the driver
/// and the daemon on one CPU (cross-CPU hand-offs made round trips
/// follow the host's load), where more clients would only queue behind
/// one another.
constexpr std::size_t kClients = 1;
constexpr std::size_t kDaemonWorkers = 1;
/// Share of requests that ask a fresh (never asked) key.
constexpr double kMissShare = 0.05;
constexpr const char* kSocket = "serve.sock";
/// Room for the hot subset plus this many fresh entries: fresh keys are
/// asked once and age out, while every hot key is asked again long before
/// it could become least recently used, so evictions hit fresh entries
/// only and their count follows from the stream.
constexpr std::size_t kFreshRoom = 64;

/// The hot subset: every SPEC of every pool model.
std::vector<ServeKey> hot_keys(const std::vector<Job>& pool) {
  std::vector<ServeKey> keys;
  for (std::size_t m = 0; m < pool.size(); ++m) {
    std::istringstream lines(pool[m].source);
    std::size_t i = 0;
    for (std::string line; std::getline(lines, line);) {
      if (line.rfind("SPEC ", 0) != 0) continue;
      keys.push_back({m, line.substr(5), pool[m].expected.at(i++)});
    }
  }
  return keys;
}

/// Client `c`'s request stream: a seeded mix of hot keys and fresh keys.
/// Fresh keys are partitioned between clients (k = c, c + C, ...), so no
/// two clients ever ask the same cold key and each fresh key is a miss
/// exactly once -- the hit / miss counts depend on the stream alone.
class Stream {
 public:
  Stream(const std::vector<Job>& pool, const std::vector<ServeKey>& hot,
         std::uint64_t seed, std::size_t client)
      : pool_(pool), hot_(hot), rng_(seed * 1000003u + client), client_(client),
        next_k_(pool.size(), 0) {
    // Every fresh-capable model is drawn with the same weight.
    for (std::size_t m = 0; m < pool.size(); ++m) {
      if (fresh_capacity(pool[m]) > 0) fresh_models_.push_back(m);
    }
  }

  /// The n-th of this client's fresh keys on a model with `capacity`
  /// fresh keys, or `capacity` when they are used up.  The client owns
  /// k = client, client + C, ...; a fixed stride permutes them so that
  /// cheap and expensive keys mix evenly over the whole stream.
  [[nodiscard]] std::size_t fresh_index(std::size_t n, std::size_t capacity) const {
    const std::size_t own = (capacity + kClients - 1 - client_) / kClients;
    if (n >= own) return capacity;
    std::size_t stride = 7919;
    while (std::gcd(stride, own) != 1) stride += 2;
    return client_ + kClients * ((n * stride) % own);
  }

  /// Next request; `fresh` tells whether it must miss.
  ServeKey next(bool& fresh) {
    fresh = std::uniform_real_distribution<double>(0, 1)(rng_) < kMissShare;
    if (!fresh) {
      return hot_[std::uniform_int_distribution<std::size_t>(0, hot_.size() - 1)(rng_)];
    }
    // A fresh-capable model drawn by weight; when its fresh keys are used
    // up, the next one in draw order.
    const std::size_t first = std::uniform_int_distribution<std::size_t>(
        0, fresh_models_.size() - 1)(rng_);
    for (std::size_t i = 0; i < fresh_models_.size(); ++i) {
      const std::size_t m = fresh_models_[(first + i) % fresh_models_.size()];
      const std::size_t k = fresh_index(next_k_[m], fresh_capacity(pool_[m]));
      if (k < fresh_capacity(pool_[m])) {
        ++next_k_[m];
        return fresh_spec(pool_, m, k);
      }
    }
    throw std::runtime_error("the fresh-key supply is used up");
  }

 private:
  const std::vector<Job>& pool_;
  const std::vector<ServeKey>& hot_;
  std::mt19937_64 rng_;
  std::size_t client_;
  std::vector<std::size_t> next_k_;
  std::vector<std::size_t> fresh_models_;
};

class Daemon {
 public:
  Daemon(const Args& args, const char* socket, std::size_t cache_capacity) {
    std::vector<std::string> argv_s = {
        args.serve_bin, "--socket", socket, "--workers",
        std::to_string(kDaemonWorkers), "--max-sessions", "16",
        "--cache-capacity", std::to_string(cache_capacity)};
    std::vector<char*> argv;
    for (auto& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    // The daemon gets the benchmark's environment minus every SYMCEX_*
    // knob (run.py already cleared them; this is the second line).
    std::vector<char*> envp;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "SYMCEX_", 7) != 0) envp.push_back(*e);
    }
    envp.push_back(nullptr);
    ::unlink(socket);
    if (posix_spawn(&pid_, argv[0], nullptr, nullptr, argv.data(), envp.data()) != 0) {
      throw std::runtime_error("cannot start " + args.serve_bin);
    }
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (true) {
      try {
        control_.connect(socket);
        break;
      } catch (const std::runtime_error&) {
        if (Clock::now() > deadline || !alive()) {
          stop();
          throw std::runtime_error("symcex-serve did not come up");
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] bool alive() {
    if (pid_ <= 0) return false;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    return true;
  }
  [[nodiscard]] symcex::serve::ServeStats stats() { return control_.stats(); }
  [[nodiscard]] double peak_rss() const { return peak_rss_mb(std::to_string(pid_)); }

  /// Ask for a clean shutdown, then make sure the process is gone.
  void stop() {
    if (pid_ <= 0) return;
    try {
      control_.shutdown_server();
    } catch (const std::exception&) {
    }
    control_.close();
    for (int i = 0; i < 5000; ++i) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  symcex::serve::Client control_;
};

struct ClientLog {
  std::vector<double> job_ms, hit_ms, miss_ms, hit_server_ms, miss_server_ms;
  std::uint64_t attempted = 0, ok = 0;
  Failures failures;
  std::map<std::string, std::string> bundles;  ///< request key -> bundle
};

/// One closed-loop client: `requests` requests, or until `until`.
void client_loop(const std::vector<Job>& pool, Stream& stream,
                 std::size_t requests, Clock::time_point until, Tracer* tracer,
                 ClientLog& log) {
  using namespace symcex;
  serve::Client conn;
  try {
    conn.connect(kSocket);
  } catch (const std::exception& e) {
    log.failures.add("daemon_lost", e.what());
    return;
  }
  for (std::size_t n = 0; requests == 0 ? Clock::now() < until : n < requests; ++n) {
    bool fresh = false;
    ServeKey key;
    try {
      key = stream.next(fresh);
    } catch (const std::exception& e) {
      log.failures.add("exception", e.what());
      return;
    }
    serve::CheckRequest request;
    request.model = pool[key.model].name;
    request.smv = pool[key.model].source;
    request.spec = key.spec;
    ++log.attempted;
    serve::CheckResult result;
    const auto t0 = Clock::now();
    std::optional<Tracer::Scope> span;
    if (tracer != nullptr) span.emplace(*tracer, fresh ? "serve.miss" : "serve.hit", n);
    try {
      result = conn.check(request);
    } catch (const std::exception& e) {
      log.failures.add("daemon_lost", e.what());
      return;
    }
    if (span) span->close();
    const double ms = ms_between(t0, Clock::now());
    if (!result.ok) {
      log.failures.add("exception", request.model + " / " + key.spec + ": " +
                                        result.error_check + ": " + result.error);
      continue;
    }
    if (result.verdict == "unknown") {
      log.failures.add("unknown", request.model + " / " + key.spec);
      continue;
    }
    if ((result.verdict == "true") != key.expected) {
      log.failures.add("wrong_verdict", request.model + " / " + key.spec);
      continue;
    }
    const std::string id = request.model + "|" + key.spec;
    const auto [it, inserted] = log.bundles.emplace(id, result.bundle);
    if (!inserted && it->second != result.bundle) {
      log.failures.add("cert_rejected", id + ": served bundle bytes changed");
      continue;
    }
    // The hit / miss split behind hit_ms, miss_ms and jobs_per_s must be
    // the one the stream planned.
    if (result.cached == fresh) {
      log.failures.add("exception", id + (fresh ? ": served from the cache, "
                                                  "a miss was planned"
                                                : ": recomputed, a hit was planned"));
      continue;
    }
    ++log.ok;
    log.job_ms.push_back(ms);
    (result.cached ? log.hit_ms : log.miss_ms).push_back(ms);
    (result.cached ? log.hit_server_ms : log.miss_server_ms).push_back(result.elapsed_ms);
  }
}

void merge(ClientLog& into, ClientLog& from) {
  const auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  cat(into.job_ms, from.job_ms);
  cat(into.hit_ms, from.hit_ms);
  cat(into.miss_ms, from.miss_ms);
  cat(into.hit_server_ms, from.hit_server_ms);
  cat(into.miss_server_ms, from.miss_server_ms);
  into.attempted += from.attempted;
  into.ok += from.ok;
  for (const auto& [cause, n] : from.failures.by_cause) into.failures.by_cause[cause] += n;
  for (const auto& n : from.failures.notes) {
    if (into.failures.notes.size() < 20) into.failures.notes.push_back(n);
  }
  into.bundles.merge(from.bundles);
}

ClientLog run_clients(const std::vector<Job>& pool, std::vector<Stream>& streams,
                      std::size_t requests, double seconds, Tracer* tracer) {
  std::vector<ClientLog> logs(kClients);
  std::vector<Tracer> tracers(kClients);
  for (Tracer& t : tracers) t.on = tracer != nullptr;
  const auto until = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                        std::chrono::duration<double>(seconds));
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        client_loop(pool, streams[c], requests, until,
                    tracer ? &tracers[c] : nullptr, logs[c]);
      });
    }
  }
  ClientLog all;
  for (ClientLog& l : logs) merge(all, l);
  if (tracer != nullptr) {
    for (Tracer& t : tracers) {
      for (const Span& s : t.spans) tracer->spans.push_back(s);
    }
  }
  return all;
}

void run_serve(const Args& args, Output& out) {
  using namespace symcex;
  const std::vector<Job> pool = serve_models(args.seed, args.root);
  const std::vector<ServeKey> hot = hot_keys(pool);
  std::vector<Stream> streams;
  for (std::size_t c = 0; c < kClients; ++c) streams.emplace_back(pool, hot, args.seed, c);

  // One set-up: start a daemon on `socket`, wait for its handshake, and
  // prime the hot subset one request at a time.
  const auto set_up = [&](const char* socket) {
    const auto t0 = Clock::now();
    auto daemon = std::make_unique<Daemon>(args, socket, hot.size() + kFreshRoom);
    serve::Client primer;
    primer.connect(socket);
    for (const ServeKey& key : hot) {
      serve::CheckRequest request;
      request.model = pool[key.model].name;
      request.smv = pool[key.model].source;
      request.spec = key.spec;
      const serve::CheckResult result = primer.check(request);
      if (!result.ok || (result.verdict == "true") != key.expected) {
        out.failures.add(result.ok ? "wrong_verdict" : "exception",
                         "priming " + request.model + " / " + key.spec);
      }
    }
    out.samples["setup_s"].push_back(ms_between(t0, Clock::now()) / 1000.0);
    return daemon;
  };
  // The measured daemon; the other set-ups run on a second socket between
  // stretches of the timed loop and are shut down at once.
  std::unique_ptr<Daemon> daemon = set_up(kSocket);
  const auto extra_set_up = [&] { set_up("setup.sock")->stop(); };

  const serve::ServeStats before = daemon->stats();
  ClientLog log;
  if (!args.trace) {
    double elapsed_s = 0;
    for (int chunk = 1; chunk <= kSetupRepeats; ++chunk) {
      const auto t0 = Clock::now();
      ClientLog part =
          run_clients(pool, streams, 0, args.seconds / kSetupRepeats, nullptr);
      elapsed_s += ms_between(t0, Clock::now()) / 1000.0;
      merge(log, part);
      if (chunk < kSetupRepeats) extra_set_up();
    }
    out.values["jobs_per_s"] = static_cast<double>(log.ok) / elapsed_s;
  } else {
    // Untraced and traced stretches of each client's stream, alternating:
    // the same shape (each stretch's fresh keys continue where the last
    // one stopped), so the ratio of their medians is the tracing overhead.
    // The first traced stretch is reported; its counts depend on the
    // stream alone.
    constexpr std::size_t kPerClient = 1000;
    std::vector<double> untraced_ms, traced_ms;
    Tracer tracer;
    serve::ServeStats mid, after;
    for (int rep = 0; rep < kTraceRepeats; ++rep) {
      const auto a0 = Clock::now();
      ClientLog part = run_clients(pool, streams, kPerClient, 0, nullptr);
      untraced_ms.push_back(ms_between(a0, Clock::now()));
      merge(log, part);
      const serve::ServeStats before_traced = daemon->stats();
      Tracer pass;
      pass.on = true;
      const auto b0 = Clock::now();
      part = run_clients(pool, streams, kPerClient, 0, &pass);
      traced_ms.push_back(ms_between(b0, Clock::now()));
      merge(log, part);
      if (rep == 0) {
        mid = before_traced;
        after = daemon->stats();
        tracer = std::move(pass);
      }
    }
    out.values["untraced_pass_ms"] = median(untraced_ms);
    out.values["traced_pass_ms"] = median(traced_ms);
    const auto delta = [](std::uint64_t x, std::uint64_t y) {
      return static_cast<double>(x - y);
    };
    const double hits = delta(after.hits, mid.hits);
    const double misses = delta(after.misses, mid.misses);
    out.layers.add("serve.hit_ratio", hits / std::max(1.0, hits + misses));
    out.layers.add("serve.misses", misses);
    out.layers.add("serve.evictions", delta(after.evictions, mid.evictions));
    out.layers.add("serve.session_evictions",
                   delta(after.session_evictions, mid.session_evictions));
    out.layers.add("serve.poisoned", delta(after.poisoned, mid.poisoned));
    out.layers.add("serve.overload_rejects",
                   delta(after.overload_rejects, mid.overload_rejects));
    out.digests["serve_counts"] =
        std::to_string(static_cast<std::uint64_t>(hits)) + "/" +
        std::to_string(static_cast<std::uint64_t>(misses)) + "/" +
        std::to_string(after.evictions - mid.evictions) + "/" +
        std::to_string(after.session_evictions - mid.session_evictions);
    std::ofstream chrome(args.work + "/trace-" + args.workload + ".json");
    tracer.write_chrome(chrome);
    out.self_ms = tracer.self_ms();

    // The layers a miss runs inside the daemon, measured in process on
    // the pool's models (the daemon's internals are not visible from
    // outside).
    Tracer inner;
    inner.on = true;
    std::uint64_t digest = fnv1a("");
    for (std::uint32_t j = 0; j < pool.size(); ++j) {
      const JobRun run = run_job(pool[j], j, inner, &out.layers);
      judge(pool[j], run, out.failures);
      for (const SpecResult& s : run.specs) digest = fnv1a(s.bundle, digest);
    }
    out.digests["bundles"] = hex(digest);
    certify_pass(pool, out);
  }
  if (!daemon->alive()) out.failures.add("daemon_lost", "daemon exited during the run");
  const serve::ServeStats end = daemon->stats();
  out.values["peak_rss_mb"] = daemon->peak_rss();
  daemon->stop();

  out.attempted = log.attempted;
  out.samples["job_ms"] = log.job_ms;
  out.samples["hit_ms"] = log.hit_ms;
  out.samples["miss_ms"] = log.miss_ms;
  out.samples["evidence_ms"] = log.hit_server_ms;
  out.samples["verdict_ms"] = log.miss_server_ms;
  out.values["ok"] = static_cast<double>(log.ok);
  // The stream's shape in numbers: daemon-side hits and misses over the
  // timed requests (each request was checked against the plan above).
  out.census_extra["stream_hits"] = static_cast<double>(end.hits - before.hits);
  out.census_extra["stream_misses"] = static_cast<double>(end.misses - before.misses);
  for (const auto& [cause, n] : log.failures.by_cause) out.failures.by_cause[cause] += n;
  for (const auto& n : log.failures.notes) out.failures.notes.push_back(n);

  // After the clock: oracle cross-check and census of the pool, the
  // stream's repeat share, and every distinct served bundle.
  for (const Job& job : pool) {
    if (const auto explicit_result = explicit_verdicts(job, 4096)) {
      out.census_extra["explicit_checked_models"] += 1;
      if (*explicit_result != job.expected) {
        out.failures.add("wrong_verdict", job.name + ": src/explicit disagrees "
                                                     "with the expected verdicts");
      }
    }
    out.census.add_model(job);
  }
  out.census.add_trace_lengths(pool);
  // A sample of each fresh family against src/explicit too (appended as
  // an SMV SPEC, so its atoms become labels the explicit engine knows).
  for (std::size_t m = 0; m < pool.size(); ++m) {
    const std::size_t capacity = fresh_capacity(pool[m]);
    for (std::size_t i = 0; capacity > 0 && i < 8; ++i) {
      const ServeKey key = fresh_spec(pool, m, (i * 7919) % capacity);
      Job probe = pool[m];
      probe.source += "SPEC " + key.spec + "\n";
      probe.expected.push_back(key.expected);
      const auto explicit_result = explicit_verdicts(probe, 1u << 16);
      out.census_extra["explicit_checked_fresh_specs"] += 1;
      if (!explicit_result || *explicit_result != probe.expected) {
        out.failures.add("wrong_verdict", pool[m].name + " / " + key.spec +
                                              ": src/explicit disagrees");
      }
    }
  }
  const double distinct = static_cast<double>(log.bundles.size());
  out.census_extra["stream_requests"] = static_cast<double>(log.attempted);
  out.census_extra["stream_distinct_pairs"] = distinct;
  out.census_extra["stream_repeat_share"] =
      log.attempted == 0 ? 0.0 : 1.0 - distinct / static_cast<double>(log.attempted);
  out.census_extra["hot_pairs"] = static_cast<double>(hot.size());
  std::map<std::string, std::string> by_digest;
  for (auto& [key, bytes] : log.bundles) by_digest.emplace(hex(fnv1a(bytes)), bytes);
  write_bundles(by_digest, args.work, out);
}

int run(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--root") args.root = value;
    else if (flag == "--work") args.work = value;
    else if (flag == "--serve-bin") args.serve_bin = value;
    else if (flag == "--host-probe") args.probes = std::stoi(value);
    else throw std::invalid_argument("unknown flag " + flag);
  }
#ifndef NDEBUG
  std::cerr << "perfbench-driver: refusing to measure a build with assertions on\n";
  return 2;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench-driver: refusing a " << PERFBENCH_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SYMCEX_", 7) == 0) {
      std::cerr << "perfbench-driver: refusing to run with " << *e
                << " set; the benchmark measures the defaults\n";
      return 2;
    }
  }
  if (args.probes > 0) {
    // A separate invocation, so the probe's memory stays out of the
    // measured run's peak RSS.
    std::vector<double> probes;
    for (int i = 0; i < args.probes; ++i) probes.push_back(host_probe_ms());
    std::cout << median(probes) << "\n";
    return 0;
  }
  Output out;
  if (args.workload == "serve-repeat") {
    run_serve(args, out);
  } else {
    run_in_process(args, out);
  }
  std::ofstream f(args.work + "/result-" + args.workload + ".json");
  out.write(f);
  return f ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench-driver: " << e.what() << "\n";
    return 1;
  }
}
