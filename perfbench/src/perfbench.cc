// Benchmark binary: host time and modeled throughput of the Triton join
// simulator on three workloads. See README.md for the workloads, metrics
// and sampling rules.
//
//   perfbench --workload <triton_ooc|checked_joins|serve_mix> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <path>]
//             [--corrupt-reference]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. The exit code is 0 when every output check passed, 3 when
// one failed (the JSON is still printed) and 2 on bad arguments or a
// failed set-up.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/triton_aggregate.h"
#include "core/triton_join.h"
#include "data/generator.h"
#include "data/relation.h"
#include "exec/backend.h"
#include "exec/block_executor.h"
#include "exec/device.h"
#include "join/common.h"
#include "join/cpu_radix_join.h"
#include "join/no_partitioning_join.h"
#include "partition/hierarchical.h"
#include "partition/input.h"
#include "partition/layout.h"
#include "partition/prefix_sum.h"
#include "partition/shared.h"
#include "reference.h"
#include "reference_kernel.h"
#include "sched/coprocess_scheduler.h"
#include "serve/join_service.h"
#include "sim/hw_spec.h"
#include "sim/perf_counters.h"
#include "trace.h"
#include "util/status.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace core = triton::core;
namespace data = triton::data;
namespace exec = triton::exec;
namespace join = triton::join;
namespace mem = triton::mem;
namespace partition = triton::partition;
namespace sched = triton::sched;
namespace serve = triton::serve;
namespace sim = triton::sim;
namespace util = triton::util;
using data::Relation;
using exec::Device;
using join::JoinRun;
using sim::PerfCounters;

double Since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

sim::HwSpec Machine(int64_t scale) {
  return sim::HwSpec::Ac922NvLink().Scaled(static_cast<double>(scale));
}

// --- Workload sizes (README.md says why) ---

/// triton_ooc: 2 Mi x 2 Mi tuples against 32 MiB of GPU memory, so three
/// quarters of the partitioned state spills to CPU memory.
constexpr int64_t kOocScale = 512;
constexpr uint64_t kOocTuples = 2u << 20;
/// checked_joins: the linear-probing table (4 MiB) and the Triton join's
/// state fit the 32 MiB of GPU memory.
constexpr int64_t kCheckedScale = 512;
constexpr uint64_t kCheckedR = 128u << 10;
constexpr uint64_t kCheckedS = 256u << 10;
/// serve_mix: 64 MiB of GPU memory; after the shared build, three
/// in-flight queries get carves of about 20 MiB each.
constexpr int64_t kServeScale = 256;
constexpr uint32_t kServeTenants = 4;
constexpr uint32_t kServeRequestsPerTenant = 25;
constexpr uint32_t kServeMaxInflight = 3;
constexpr uint64_t kServeSharedBuild = 256u << 10;
/// Seed mix the service applies to an aggregate request's payload column
/// (serve::JoinService::ExecuteQuery); the reference regenerates the same
/// relation through the public fill functions.
constexpr uint64_t kAggregatePayloadSeedMix = 0x9e3779b97f4a7c15ULL;

/// Timed repetitions taken even when --seconds has already run out.
constexpr size_t kMinReps = 3;
/// Quantile of the repetition / reference-pass ratios reported as host_s.
constexpr double kHostRatioQuantile = 0.25;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool corrupt = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      args->corrupt = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && value[0] != '-' && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && args->seconds > 0 &&
                     args->seconds <= 120;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds "
                 "<(0,120]> --trace <0|1> [--trace-out <path>] "
                 "[--corrupt-reference]\n");
    return false;
  }
  return true;
}

/// Output checks of a run. Each distinct failed check goes to stderr once,
/// as "CHECK FAILED: <what>"; any failure makes the run report
/// correct = false.
class Checker {
 public:
  void Expect(bool ok, const std::string& what) {
    if (ok) return;
    if (reported_.size() < 200 && reported_.insert(what).second) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
    ++errors_;
  }
  bool ok() const { return errors_ == 0; }

 private:
  uint64_t errors_ = 0;
  std::set<std::string> reported_;
};

/// Names a reference value that --corrupt-reference falsified. The
/// self-test in run.py expects a "CHECK FAILED: <what>" line for each.
void ReportCorrupted(const std::string& what) {
  std::fprintf(stderr, "CORRUPTED: %s\n", what.c_str());
}

/// Opens a span around `fn` and returns the host seconds it took.
template <typename Fn>
double Timed(Tracer& tracer, const char* span, Fn&& fn) {
  ScopedSpan s(tracer, span);
  const Clock::time_point t = Clock::now();
  fn();
  return Since(t);
}

/// What a repetition produced that every other repetition of the workload,
/// at any thread count, must reproduce bit-exactly.
struct Modeled {
  std::vector<uint64_t> values;  // matches and checksums, in request order
  std::vector<double> seconds;   // modeled seconds, in request order
  std::vector<PerfCounters> counters;

  void Add(uint64_t matches, uint64_t checksum, double elapsed,
           const PerfCounters& c) {
    values.push_back(matches);
    values.push_back(checksum);
    seconds.push_back(elapsed);
    counters.push_back(c);
  }

  bool operator==(const Modeled& o) const {
    return values == o.values && counters == o.counters &&
           seconds.size() == o.seconds.size() &&
           std::memcmp(seconds.data(), o.seconds.data(),
                       seconds.size() * sizeof(double)) == 0;
  }
};

/// One repetition of a workload's operation.
struct Rep {
  /// Host seconds inside the timed entry points.
  double host_s = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Modeled modeled;
  /// Input tuples of the completed operations, and the modeled seconds
  /// they took.
  uint64_t tuples = 0;
  double modeled_seconds = 0.0;
  /// Counters merged over the repetition (per-layer sim metrics).
  PerfCounters totals;
};

/// Checks the modeled-time composition of a Triton join: overlapping the
/// second pass with the join can only shorten the sum of the phases, and
/// nothing can make the join shorter than its longest phase.
void CheckTritonTime(const JoinRun& run, const std::string& what,
                     Checker& check) {
  double sum = 0.0, longest = 0.0;
  for (const exec::KernelRecord& p : run.phases) {
    sum += p.Elapsed();
    longest = std::max(longest, p.Elapsed());
  }
  check.Expect(run.elapsed <= sum * (1 + 1e-12),
               what + ": modeled elapsed exceeds the sum of its phases");
  check.Expect(run.elapsed >= longest * (1 - 1e-12),
               what + ": modeled elapsed below its longest phase");
}

/// Physical link traffic (headers, byte enables, partial transactions)
/// can never be smaller than the payload it carries.
void CheckLink(const PerfCounters& c, const std::string& what,
               Checker& check) {
  check.Expect(c.link_read_physical >= c.link_read_payload &&
                   c.link_write_physical >= c.link_write_payload,
               what + ": physical link bytes below payload bytes");
}

void CheckResult(uint64_t matches, uint64_t checksum, const Expected& want,
                 const std::string& what, Checker& check) {
  check.Expect(want.valid, what + ": inputs break the key-domain contract");
  check.Expect(matches == want.matches,
               what + ": matches " + std::to_string(matches) + " != " +
                   std::to_string(want.matches));
  check.Expect(checksum == want.checksum, what + ": checksum mismatch");
}

/// Placeholder for a result slot filled inside a timed lambda.
util::Status NotRun() { return util::Status::Internal("not run"); }

util::StatusOr<data::Workload> Generate(mem::Allocator& alloc, uint64_t r,
                                        uint64_t s, uint64_t seed,
                                        double zipf = 0.0) {
  data::WorkloadConfig cfg;
  cfg.r_tuples = r;
  cfg.s_tuples = s;
  cfg.seed = seed;
  cfg.zipf_theta = zipf;
  return data::GenerateWorkload(alloc, cfg);
}

/// A Triton join's result and statistics, for the per-layer core metrics.
struct CoreFigures {
  JoinRun run;
  core::TritonJoinStats stats;
};

// --- Workloads ---

class Bench {
 public:
  virtual ~Bench() = default;
  /// Generates the inputs and their reference results.
  virtual util::Status Setup(Tracer& tracer, Checker& check) = 0;
  /// Runs one repetition and checks its outputs.
  virtual Rep RunRep(Tracer& tracer, Checker& check) = 0;
  /// Kernel records one repetition produces.
  virtual uint64_t LaunchesPerRep(Tracer& tracer, Checker& check) = 0;

  /// Host seconds of the cold input generation in Setup.
  double generate_s() const { return generate_s_; }

 protected:
  double generate_s_ = 0.0;
};

/// triton_ooc (checked = false): the paper's headline path, a Triton join
/// with materialized results whose partitioned state mostly spills to CPU
/// memory.
/// checked_joins (checked = true): a linear-probing no-partitioning join
/// (random hash-table writes) and a Triton join (sequential buffered
/// flushes) on a device with the DeviceSanitizer on.
///
/// Each repetition runs on a fresh device: the simulated TLBs keep state
/// across joins, so only a fresh machine makes every repetition's modeled
/// results a pure function of the inputs.
class JoinBench : public Bench {
 public:
  JoinBench(uint64_t seed, bool corrupt, bool checked)
      : seed_(seed),
        corrupt_(corrupt),
        checked_(checked),
        name_(checked ? "checked_joins" : "triton_ooc"),
        hw_(Machine(checked ? kCheckedScale : kOocScale)),
        r_tuples_(checked ? kCheckedR : kOocTuples),
        s_tuples_(checked ? kCheckedS : kOocTuples) {}

  util::Status Setup(Tracer& tracer, Checker&) override {
    Device dev(hw_, checked_);
    util::StatusOr<data::Workload> wl = NotRun();
    generate_s_ = Timed(tracer, "data.generate", [&] {
      wl = Generate(dev.allocator(), r_tuples_, s_tuples_, seed_);
    });
    TRITON_RETURN_IF_ERROR(wl.status());
    expected_ = ReferenceJoin(wl->r, wl->s, corrupt_);
    if (corrupt_) {
      if (checked_) ReportCorrupted(std::string(name_) + " npj");
      ReportCorrupted(std::string(name_) + " triton");
    }
    return util::Status::OK();
  }

  Rep RunRep(Tracer& tracer, Checker& check) override {
    Rep rep;
    rep.attempted = 1;
    std::unique_ptr<Device> dev;
    util::StatusOr<data::Workload> wl = NotRun();
    {
      ScopedSpan span(tracer, "exec.device");
      dev = std::make_unique<Device>(hw_, checked_);
      // A hit in the generator's content cache: the same bytes, copied.
      wl = Generate(dev->allocator(), r_tuples_, s_tuples_, seed_);
    }
    util::StatusOr<JoinRun> npj = NotRun();
    util::StatusOr<JoinRun> tri = NotRun();
    if (wl.ok() && checked_) {
      join::NoPartitioningJoin linear(
          {.scheme = join::HashScheme::kLinearProbing,
           .result_mode = join::ResultMode::kMaterialize});
      rep.host_s += Timed(tracer, "join.npj",
                          [&] { npj = linear.Run(*dev, wl->r, wl->s); });
    }
    core::TritonJoin triton({.result_mode = join::ResultMode::kMaterialize});
    if (wl.ok()) {
      rep.host_s += Timed(tracer, "core.triton_join",
                          [&] { tri = triton.Run(*dev, wl->r, wl->s); });
    }
    if (!wl.ok() || !tri.ok() || (checked_ && !npj.ok())) {
      std::fprintf(stderr, "%s: %s / %s / %s\n", name_,
                   wl.status().ToString().c_str(),
                   npj.status().ToString().c_str(),
                   tri.status().ToString().c_str());
      rep.failed = 1;
      return rep;
    }
    const uint64_t tuples = wl->r.rows() + wl->s.rows();
    launches_ = 0;
    for (const JoinRun* run : {checked_ ? &*npj : nullptr, &*tri}) {
      if (run == nullptr) continue;
      const std::string what =
          std::string(name_) + (run == &*tri ? " triton" : " npj");
      CheckResult(run->matches, run->checksum, expected_, what, check);
      CheckLink(run->totals, what, check);
      rep.modeled.Add(run->matches, run->checksum, run->elapsed, run->totals);
      rep.tuples += tuples;
      rep.modeled_seconds += run->elapsed;
      rep.totals.Merge(run->totals);
      launches_ += run->phases.size();
    }
    CheckTritonTime(*tri, std::string(name_) + " triton", check);
    if (!checked_ && !core_.has_value()) {
      core_ = CoreFigures{*tri, triton.stats()};
    }
    return rep;
  }

  uint64_t LaunchesPerRep(Tracer&, Checker&) override { return launches_; }

  /// triton_ooc: the Triton join of the first repetition, which ran on a
  /// fresh device (unset until a repetition completed, and for
  /// checked_joins).
  const std::optional<CoreFigures>& core() const { return core_; }

 private:
  uint64_t seed_;
  bool corrupt_;
  bool checked_;
  const char* name_;
  sim::HwSpec hw_;
  uint64_t r_tuples_;
  uint64_t s_tuples_;
  Expected expected_;
  uint64_t launches_ = 0;
  std::optional<CoreFigures> core_;
};

/// One request of the serve_mix trace with its reference result.
struct TracedRequest {
  serve::Request request;
  Expected expected;
  /// Probe checksums depend on the shared build's private key stream, so
  /// only their match count is checked.
  bool check_checksum = true;
  uint64_t tuples = 0;
};

/// How checks name the request at `index` (0-based) of the serve_mix trace.
std::string RequestLabel(size_t index, serve::RequestKind kind) {
  return "serve_mix request " + std::to_string(index + 1) + " (" +
         serve::RequestKindName(kind) + ")";
}

/// The serve_mix request trace: per tenant 25 requests, interleaved across
/// tenants in submission order. Sizes are fixed; contents follow `seed`.
std::vector<serve::Request> ServeTrace(uint64_t seed) {
  std::vector<serve::Request> trace;
  for (uint32_t k = 0; k < kServeRequestsPerTenant; ++k) {
    for (uint32_t t = 0; t < kServeTenants; ++t) {
      serve::Request r;
      r.tenant = t;
      r.seed = seed * 1000003 + trace.size() + 1;
      const uint64_t build = (48u << 10) + (8u << 10) * t;
      switch (k) {
        case 0:
        case 15:
          r.kind = serve::RequestKind::kJoin;
          r.backend = exec::Backend::kGpu;
          r.r_tuples = build;
          r.s_tuples = 2 * build;
          r.zipf_theta = k == 15 ? 0.8 : 0.0;
          break;
        case 5:
          r.kind = serve::RequestKind::kJoin;
          r.backend = exec::Backend::kCpu;
          r.r_tuples = build;
          r.s_tuples = 2 * build;
          break;
        case 10:
          r.kind = serve::RequestKind::kJoin;
          r.backend = exec::Backend::kHybrid;
          r.r_tuples = build;
          r.s_tuples = 2 * build;
          r.zipf_theta = t % 2 == 1 ? 0.8 : 0.0;
          break;
        case 20:
          r.kind = serve::RequestKind::kAggregate;
          r.r_tuples = 8u << 10;  // group-key domain
          r.s_tuples = 128u << 10;
          break;
        default:
          r.kind = serve::RequestKind::kProbe;
          r.s_tuples = (2u << 10) + (1u << 10) * ((k + t) % 4);
          break;
      }
      trace.push_back(r);
    }
  }
  return trace;
}

serve::ServiceConfig ServeConfig(uint64_t seed) {
  serve::ServiceConfig cfg;
  cfg.queue_capacity = kServeTenants * kServeRequestsPerTenant;
  cfg.max_inflight = kServeMaxInflight;
  // The scheduler's interleaving is service policy, not input: holding it
  // fixed keeps the probe batching the same across seeds.
  cfg.scheduler_seed = 1;
  cfg.shared_build_tuples = kServeSharedBuild;
  cfg.shared_build_seed = seed + 7;
  return cfg;
}

/// Fills an aggregate request's input relation as serve::JoinService does.
void FillAggregateInput(Relation& rel, const serve::Request& req) {
  data::FillForeignKeys(rel, req.r_tuples, req.seed);
  data::FillPayloads(rel, req.seed ^ kAggregatePayloadSeedMix);
}

/// The co-processing configuration the service gives a hybrid join.
sched::CoProcessConfig HybridConfig(uint64_t request_seed) {
  sched::CoProcessConfig cfg;
  cfg.result_mode = join::ResultMode::kAggregate;
  cfg.adaptive = true;
  cfg.seed = request_seed;
  return cfg;
}

/// Runs a join request on `backend` outside the service, configured as the
/// service configures it.
util::StatusOr<JoinRun> RunBackend(Device& dev, exec::Backend backend,
                                   const serve::Request& req,
                                   const Relation& r, const Relation& s) {
  switch (backend) {
    case exec::Backend::kCpu:
      return join::CpuRadixJoin({.result_mode = join::ResultMode::kAggregate})
          .Run(dev, r, s);
    case exec::Backend::kHybrid:
      return sched::CoProcessScheduler(HybridConfig(req.seed)).Run(dev, r, s);
    case exec::Backend::kGpu:
      break;
  }
  return core::TritonJoin({.result_mode = join::ResultMode::kAggregate})
      .Run(dev, r, s);
}

/// A seeded multi-tenant trace through serve::JoinService.
class ServeMixBench : public Bench {
 public:
  ServeMixBench(uint64_t seed, bool corrupt)
      : seed_(seed),
        corrupt_(corrupt),
        hw_(Machine(kServeScale)),
        config_(ServeConfig(seed)) {}

  util::Status Setup(Tracer& tracer, Checker&) override {
    mem::Allocator alloc(hw_);
    // With --corrupt-reference, the first request of each kind gets a
    // falsified reference.
    std::set<serve::RequestKind> corrupted;
    util::Status status;
    for (const serve::Request& req : ServeTrace(seed_)) {
      TracedRequest tr;
      tr.request = req;
      tr.tuples = req.s_tuples;
      const bool corrupt = corrupt_ && corrupted.insert(req.kind).second;
      if (corrupt) ReportCorrupted(RequestLabel(trace_.size(), req.kind));
      if (req.kind == serve::RequestKind::kJoin) {
        tr.tuples += req.r_tuples;
        generate_s_ += Timed(tracer, "data.generate", [&] {
          auto wl = Generate(alloc, req.r_tuples, req.s_tuples, req.seed,
                             req.zipf_theta);
          if (!wl.ok()) {
            status = wl.status();
            return;
          }
          tr.expected = ReferenceJoin(wl->r, wl->s, corrupt);
        });
      } else if (req.kind == serve::RequestKind::kAggregate) {
        generate_s_ += Timed(tracer, "data.generate", [&] {
          auto rel = Relation::AllocateCpu(alloc, req.s_tuples);
          if (!rel.ok()) {
            status = rel.status();
            return;
          }
          FillAggregateInput(*rel, req);
          tr.expected = ReferenceGroupBy(*rel, req.r_tuples, corrupt);
        });
      } else {
        tr.expected.matches = req.s_tuples + (corrupt ? 1 : 0);
        tr.check_checksum = false;
      }
      TRITON_RETURN_IF_ERROR(status);
      trace_.push_back(tr);
    }
    return util::Status::OK();
  }

  Rep RunRep(Tracer& tracer, Checker& check) override {
    Rep rep;
    rep.attempted = trace_.size();
    std::unique_ptr<serve::JoinService> svc;
    {
      ScopedSpan span(tracer, "serve.construct");
      svc = std::make_unique<serve::JoinService>(hw_, config_);
    }
    if (!svc->init_status().ok()) {
      std::fprintf(stderr, "serve_mix: %s\n",
                   svc->init_status().ToString().c_str());
      rep.failed = rep.attempted;
      return rep;
    }
    uint64_t rejected = 0;
    const double submit_s = Timed(tracer, "serve.submit", [&] {
      for (const TracedRequest& tr : trace_) {
        if (!svc->Submit(tr.request).ok()) ++rejected;
      }
    });
    util::Status drained;
    const double drain_s =
        Timed(tracer, "serve.drain", [&] { drained = svc->Drain(); });
    rep.host_s = submit_s + drain_s;
    if (!drained.ok()) {
      std::fprintf(stderr, "serve_mix: %s\n", drained.ToString().c_str());
      rep.failed = rep.attempted;
      return rep;
    }

    std::vector<const serve::RequestOutcome*> by_id(trace_.size(), nullptr);
    for (const serve::RequestOutcome& out : svc->outcomes()) {
      if (out.id >= 1 && out.id <= by_id.size()) by_id[out.id - 1] = &out;
    }
    rep.failed = rejected;
    request_seconds_.clear();
    probe_requests_ = 0;
    uint64_t queries = 0;
    for (size_t i = 0; i < trace_.size(); ++i) {
      const TracedRequest& tr = trace_[i];
      const serve::RequestOutcome* out = by_id[i];
      if (out == nullptr) continue;  // rejected at submission
      if (tr.request.kind != serve::RequestKind::kProbe) ++queries;
      const std::string what = RequestLabel(i, tr.request.kind);
      if (!out->status.ok()) {
        std::fprintf(stderr, "%s: %s\n", what.c_str(),
                     out->status.ToString().c_str());
        ++rep.failed;
        continue;
      }
      CheckResult(out->matches,
                  tr.check_checksum ? out->checksum : tr.expected.checksum,
                  tr.expected, what, check);
      CheckLink(out->counters, what, check);
      rep.modeled.Add(out->matches, out->checksum, out->elapsed,
                      out->counters);
      rep.tuples += tr.tuples;
      rep.totals.Merge(out->counters);
      request_seconds_.push_back(out->elapsed);
      if (tr.request.kind == serve::RequestKind::kProbe) ++probe_requests_;
    }
    rep.modeled_seconds = svc->busy_seconds();
    dispatches_ = svc->dispatches();
    // The service dispatches each join and aggregate alone, and each probe
    // batch as one launch.
    probe_launches_ = dispatches_ - queries;
    return rep;
  }

  /// Kernel records of one trace: each join and aggregate replayed outside
  /// the service on an uncarved device (the service's private devices are
  /// not visible), plus one launch per probe batch.
  uint64_t LaunchesPerRep(Tracer& tracer, Checker& check) override {
    uint64_t launches = ProbeLaunches();
    ScopedSpan span(tracer, "exec.replay");
    for (const TracedRequest& tr : trace_) {
      const serve::Request& req = tr.request;
      if (req.kind == serve::RequestKind::kProbe) continue;
      Device dev(hw_, false);
      util::Status status;
      if (req.kind == serve::RequestKind::kJoin) {
        auto wl = Generate(dev.allocator(), req.r_tuples, req.s_tuples,
                           req.seed, req.zipf_theta);
        status = wl.status();
        if (wl.ok()) {
          status = RunBackend(dev, req.backend, req, wl->r, wl->s).status();
        }
      } else {
        auto rel = Relation::AllocateCpu(dev.allocator(), req.s_tuples);
        status = rel.status();
        if (rel.ok()) {
          FillAggregateInput(*rel, req);
          status = core::TritonAggregate().Run(dev, *rel).status();
        }
      }
      check.Expect(status.ok(), "serve_mix replay: " + status.ToString());
      launches += dev.trace().size();
    }
    return launches;
  }

  const std::vector<TracedRequest>& trace() const { return trace_; }
  const sim::HwSpec& hw() const { return hw_; }
  uint64_t dispatches() const { return dispatches_; }
  uint64_t ProbeLaunches() const { return probe_launches_; }
  double MeanProbeBatch() const {
    const uint64_t launches = ProbeLaunches();
    return launches == 0 ? 0.0
                         : static_cast<double>(probe_requests_) / launches;
  }
  const std::vector<double>& request_seconds() const {
    return request_seconds_;
  }

 private:
  uint64_t seed_;
  bool corrupt_;
  sim::HwSpec hw_;
  serve::ServiceConfig config_;
  std::vector<TracedRequest> trace_;
  // Figures of the last repetition, for the per-layer serve metrics.
  std::vector<double> request_seconds_;
  uint64_t dispatches_ = 0;
  uint64_t probe_requests_ = 0;
  uint64_t probe_launches_ = 0;
};

std::unique_ptr<Bench> MakeBench(const Args& args) {
  if (args.workload == "triton_ooc" || args.workload == "checked_joins") {
    return std::make_unique<JoinBench>(args.seed, args.corrupt,
                                       args.workload == "checked_joins");
  }
  if (args.workload == "serve_mix") {
    return std::make_unique<ServeMixBench>(args.seed, args.corrupt);
  }
  return nullptr;
}

// --- Output ---

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Quantile by linear interpolation between order statistics.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double PeakRssMiB() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- The per-layer suite of the traced run ---

/// Standalone partitioner passes on the triton_ooc inputs, at
/// TritonJoin::DeriveBits' radix bits.
void PartitionLayer(uint64_t seed, Tracer& tracer, Checker& check,
                    std::vector<Metric>& out) {
  Device dev(Machine(kOocScale), false);
  auto wl = Generate(dev.allocator(), kOocTuples, kOocTuples, seed);
  check.Expect(wl.ok(), "partition layer inputs: " + wl.status().ToString());
  if (!wl.ok()) return;
  uint32_t bits1 = 0, bits2 = 0;
  core::TritonJoin::DeriveBits(dev.hw(), kOocTuples, kOocTuples, &bits1,
                               &bits2);
  const partition::RadixConfig radix1{0, bits1};
  const partition::RadixConfig radix2 = radix1.Next(bits2);
  const uint32_t blocks = dev.hw().gpu.num_sms;
  const partition::ColumnInput r_in = partition::ColumnInput::Of(wl->r);
  const partition::PartitionLayout layout1 =
      partition::CpuPrefixSum(dev, r_in, radix1, blocks);
  auto pass1_out = dev.allocator().AllocateCpu(layout1.padded_tuples() *
                                               sizeof(partition::Tuple));
  check.Expect(pass1_out.ok(),
               "pass-1 output: " + pass1_out.status().ToString());
  if (!pass1_out.ok()) return;

  partition::HierarchicalPartitioner hierarchical;
  partition::SharedPartitioner shared;
  partition::PartitionOptions opts;
  opts.sms = blocks;
  double pass1_s = 1e300, pass2_s = 1e300, tuples_per_txn = 0.0;
  for (int i = 0; i < 3; ++i) {
    partition::PartitionRun run1;
    opts.name = "partition1_r";
    pass1_s = std::min(pass1_s, Timed(tracer, "partition.pass1", [&] {
      run1 = hierarchical.PartitionColumns(dev, r_in, layout1, *pass1_out,
                                           opts);
    }));
    if (i == 0) tuples_per_txn = run1.TuplesPerWriteTxn();

    double sum = 0.0;
    opts.name = "partition2";
    for (uint32_t p = 0; p < radix1.fanout(); ++p) {
      const partition::SlicedRowInput rows =
          partition::PartitionInputOf(*pass1_out, layout1, p);
      if (rows.size() == 0) continue;
      const partition::PartitionLayout layout2 =
          partition::CpuPrefixSum(dev, rows, radix2, blocks);
      auto pass2_out = dev.allocator().AllocateGpu(layout2.padded_tuples() *
                                                   sizeof(partition::Tuple));
      check.Expect(pass2_out.ok(),
                   "pass-2 output: " + pass2_out.status().ToString());
      if (!pass2_out.ok()) return;
      sum += Timed(tracer, "partition.pass2", [&] {
        shared.PartitionSliced(dev, rows, layout2, *pass2_out, opts);
      });
      dev.allocator().Free(*pass2_out);
    }
    pass2_s = std::min(pass2_s, sum);
    dev.ClearTrace();
  }
  out.push_back({"partition.pass1_host_s", pass1_s, "s"});
  out.push_back({"partition.pass2_host_s", pass2_s, "s"});
  out.push_back({"partition.tuples_per_write_txn", tuples_per_txn, "tuples"});
  dev.allocator().Free(*pass1_out);
}

/// The phases of the triton_ooc join. The triton_ooc workload passes its
/// own first repetition; the other workloads run the same join here, on a
/// fresh device as a triton_ooc repetition does.
void CoreLayer(uint64_t seed, const std::optional<CoreFigures>& own,
               Tracer& tracer, Checker& check, std::vector<Metric>& out) {
  std::optional<CoreFigures> figures = own;
  if (!figures.has_value()) {
    Device dev(Machine(kOocScale), false);
    auto wl = Generate(dev.allocator(), kOocTuples, kOocTuples, seed);
    check.Expect(wl.ok(), "core layer inputs: " + wl.status().ToString());
    if (!wl.ok()) return;
    core::TritonJoin triton({.result_mode = join::ResultMode::kMaterialize});
    util::StatusOr<JoinRun> run = NotRun();
    Timed(tracer, "core.triton_join",
          [&] { run = triton.Run(dev, wl->r, wl->s); });
    check.Expect(run.ok(), "core layer: " + run.status().ToString());
    if (!run.ok()) return;
    figures = CoreFigures{*run, triton.stats()};
  }
  for (const char* phase : {"prefix_sum1", "partition1", "prefix_sum2",
                            "partition2", "sched", "join"}) {
    out.push_back({std::string("core.phase_s.") + phase,
                   figures->run.PhaseTime(phase), "s"});
  }
  out.push_back({"core.cached_fraction", figures->stats.cached_fraction,
                 "fraction"});
  out.push_back({"core.spilled_mib",
                 static_cast<double>(figures->stats.spilled_bytes) /
                     (1024.0 * 1024.0),
                 "MiB"});
}

/// Linear-probing NPJ and Triton join on the checked_joins inputs, with the
/// device's sanitizer off and on.
void SanitizerAndJoinLayers(uint64_t seed, Tracer& tracer, Checker& check,
                            std::vector<Metric>& out) {
  double npj_s[2] = {1e300, 1e300}, triton_s[2] = {1e300, 1e300};
  for (int sanitize = 0; sanitize < 2; ++sanitize) {
    Device dev(Machine(kCheckedScale), sanitize == 1);
    auto wl = Generate(dev.allocator(), kCheckedR, kCheckedS, seed);
    check.Expect(wl.ok(), "sanitizer layer inputs: " + wl.status().ToString());
    if (!wl.ok()) return;
    const Expected want = ReferenceJoin(wl->r, wl->s, false);
    const char* npj_span = sanitize ? "sanitizer.npj" : "join.npj";
    const char* triton_span =
        sanitize ? "sanitizer.triton" : "core.triton_join";
    for (int i = 0; i < 2; ++i) {
      join::NoPartitioningJoin linear(
          {.scheme = join::HashScheme::kLinearProbing,
           .result_mode = join::ResultMode::kMaterialize});
      core::TritonJoin triton({.result_mode = join::ResultMode::kMaterialize});
      util::StatusOr<JoinRun> a = NotRun(), b = NotRun();
      npj_s[sanitize] = std::min(npj_s[sanitize], Timed(tracer, npj_span, [&] {
        a = linear.Run(dev, wl->r, wl->s);
      }));
      triton_s[sanitize] =
          std::min(triton_s[sanitize], Timed(tracer, triton_span, [&] {
            b = triton.Run(dev, wl->r, wl->s);
          }));
      check.Expect(a.ok() && b.ok(), "sanitizer layer joins failed");
      if (!a.ok() || !b.ok()) return;
      CheckResult(a->matches, a->checksum, want, npj_span, check);
      CheckResult(b->matches, b->checksum, want, triton_span, check);
    }
  }
  out.push_back({"sanitizer.overhead_x.npj", Ratio(npj_s[1], npj_s[0]), "x"});
  out.push_back(
      {"sanitizer.overhead_x.triton", Ratio(triton_s[1], triton_s[0]), "x"});
  out.push_back({"sanitizer.host_s",
                 (npj_s[1] + triton_s[1]) - (npj_s[0] + triton_s[0]), "s"});
  out.push_back({"join.npj_host_s", npj_s[0], "s"});
}

/// Runs `fn` on a fresh device that holds the inputs of the join request
/// `tr`; returns the host seconds of `fn`, timed in a span called `span`.
template <typename Fn>
double OnFreshDevice(const sim::HwSpec& hw, const TracedRequest& tr,
                     Tracer& tracer, const char* span, Checker& check,
                     Fn&& fn) {
  Device dev(hw, false);
  const serve::Request& req = tr.request;
  auto wl = Generate(dev.allocator(), req.r_tuples, req.s_tuples, req.seed,
                     req.zipf_theta);
  check.Expect(wl.ok(), std::string(span) + " inputs: " +
                            wl.status().ToString());
  if (!wl.ok()) return 0.0;
  return Timed(tracer, span, [&] { fn(dev, *wl); });
}

/// CpuRadixJoin on the first CPU join of the serve_mix trace, and the
/// co-processing scheduler on its first hybrid join, run outside the
/// service. Every run gets a fresh uncarved device, as the service gives
/// each query a fresh device.
void CpuAndSchedLayers(const ServeMixBench& serve_mix, Tracer& tracer,
                       Checker& check, std::vector<Metric>& out) {
  const TracedRequest* cpu = nullptr;
  const TracedRequest* hybrid = nullptr;
  for (const TracedRequest& tr : serve_mix.trace()) {
    if (tr.request.kind != serve::RequestKind::kJoin) continue;
    if (tr.request.backend == exec::Backend::kCpu && cpu == nullptr) cpu = &tr;
    if (tr.request.backend == exec::Backend::kHybrid && hybrid == nullptr) {
      hybrid = &tr;
    }
  }
  if (cpu == nullptr || hybrid == nullptr) return;
  const sim::HwSpec& hw = serve_mix.hw();

  double cpu_s = 1e300;
  for (size_t i = 0; i < kMinReps; ++i) {
    cpu_s = std::min(cpu_s, OnFreshDevice(hw, *cpu, tracer, "join.cpu_radix",
                                          check, [&](Device& dev,
                                                     data::Workload& wl) {
      auto run = RunBackend(dev, exec::Backend::kCpu, cpu->request, wl.r,
                            wl.s);
      check.Expect(run.ok(), "cpu radix join: " + run.status().ToString());
      if (run.ok()) {
        CheckResult(run->matches, run->checksum, cpu->expected,
                    "cpu radix join", check);
      }
    }));
  }
  out.push_back({"join.cpu_radix_host_s", cpu_s, "s"});

  double sched_s = 1e300;
  std::optional<sched::CoProcessStats> stats;
  for (size_t i = 0; i < kMinReps; ++i) {
    sched_s = std::min(sched_s, OnFreshDevice(hw, *hybrid, tracer, "sched.run",
                                              check, [&](Device& dev,
                                                         data::Workload& wl) {
      sched::CoProcessScheduler hybrid_join(HybridConfig(hybrid->request.seed));
      auto run = hybrid_join.Run(dev, wl.r, wl.s);
      check.Expect(run.ok(), "co-processing join: " + run.status().ToString());
      if (!run.ok()) return;
      CheckResult(run->matches, run->checksum, hybrid->expected,
                  "co-processing join", check);
      const sched::CoProcessStats& st = hybrid_join.stats();
      check.Expect(!stats.has_value() ||
                       (stats->final_cpu_fraction == st.final_cpu_fraction &&
                        stats->predicted_cpu_seconds ==
                            st.predicted_cpu_seconds),
                   "co-processing join does not repeat on a fresh device");
      stats = st;
    }));
  }
  // The predictors' anchors: the same join on each backend alone.
  double anchor[2] = {0.0, 0.0};
  const exec::Backend backends[2] = {exec::Backend::kCpu, exec::Backend::kGpu};
  for (int b = 0; b < 2; ++b) {
    OnFreshDevice(hw, *hybrid, tracer, "sched.anchor", check,
                  [&](Device& dev, data::Workload& wl) {
      auto run = RunBackend(dev, backends[b], hybrid->request, wl.r, wl.s);
      check.Expect(run.ok(), "single-backend join: " + run.status().ToString());
      if (run.ok()) anchor[b] = run->elapsed;
    });
  }
  if (!stats.has_value()) return;
  out.push_back({"sched.host_s", sched_s, "s"});
  out.push_back({"sched.cpu_share_initial", stats->initial_cpu_fraction,
                 "fraction"});
  out.push_back({"sched.cpu_share_final", stats->final_cpu_fraction,
                 "fraction"});
  out.push_back({"sched.predict_error_cpu",
                 std::abs(Ratio(stats->predicted_cpu_seconds, anchor[0]) - 1.0),
                 "fraction"});
  out.push_back({"sched.predict_error_gpu",
                 std::abs(Ratio(stats->predicted_gpu_seconds, anchor[1]) - 1.0),
                 "fraction"});
}

void ServeLayer(ServeMixBench& serve_mix, Tracer& tracer,
                std::vector<Metric>& out) {
  const std::vector<double>& secs = serve_mix.request_seconds();
  out.push_back({"serve.dispatches",
                 static_cast<double>(serve_mix.dispatches()), "count"});
  out.push_back({"serve.mean_probe_batch", serve_mix.MeanProbeBatch(),
                 "requests"});
  out.push_back({"serve.request_modeled_p50_s", Quantile(secs, 0.5), "s"});
  // 100 requests: p90 is the highest percentile with ten samples above it.
  out.push_back({"serve.request_modeled_p90_s", Quantile(secs, 0.9), "s"});
  out.push_back({"serve.submit_host_s", tracer.Min("serve.submit"), "s"});
  out.push_back({"serve.drain_host_s", tracer.Min("serve.drain"), "s"});
}

void SimLayer(const Rep& rep, std::vector<Metric>& out) {
  const PerfCounters& c = rep.totals;
  const double tuples = static_cast<double>(rep.tuples);
  out.push_back({"sim.link_read_bytes_per_tuple",
                 Ratio(static_cast<double>(c.link_read_physical), tuples),
                 "B/tuple"});
  out.push_back({"sim.link_write_bytes_per_tuple",
                 Ratio(static_cast<double>(c.link_write_physical), tuples),
                 "B/tuple"});
  out.push_back(
      {"sim.link_physical_over_payload",
       Ratio(static_cast<double>(c.link_read_physical + c.link_write_physical),
             static_cast<double>(c.link_read_payload + c.link_write_payload)),
       "x"});
  out.push_back({"sim.iommu_requests_per_tuple",
                 Ratio(static_cast<double>(c.iommu_requests), tuples),
                 "1/tuple"});
  out.push_back({"sim.gpu_tlb_miss_rate",
                 Ratio(static_cast<double>(c.gpu_tlb_misses),
                       static_cast<double>(c.gpu_tlb_lookups)),
                 "fraction"});
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  std::unique_ptr<Bench> bench = MakeBench(args);
  if (bench == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  // End-to-end host time is taken on one block-executor thread; modeled
  // results are bit-identical at any thread count.
  exec::BlockExecutor::Global().SetThreads(1);
  Tracer tracer(args.trace);
  Checker check;

  // Set-up: inputs, references and the cold first repetition, which pays
  // the page faults of the host block pool and the workload content cache.
  util::Status setup = bench->Setup(tracer, check);
  if (!setup.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 setup.ToString().c_str());
    return 2;
  }
  const Rep first = bench->RunRep(tracer, check);
  const double setup_raw_s = Since(process_start);
  uint64_t attempted = first.attempted, failed = first.failed;
  // Set-up and one whole repetition, read before the reference kernel
  // allocates its buffers. Warm repetitions reuse the pooled host blocks.
  const double peak_rss_mib = PeakRssMiB();

  // Warm repetitions for --seconds, each followed by a pass of the
  // reference kernel. Other tenants of the host slow the repetition and the
  // pass after it alike (reference_kernel.h), so each repetition is divided
  // by its own pass. Interference only adds host time, and a disturbed pass
  // shrinks its ratio, so a low quantile of the ratios rather than their
  // minimum is the estimate least moved by either.
  std::vector<double> host, passes, ratios;
  const Clock::time_point loop_start = Clock::now();
  while (host.size() < kMinReps || Since(loop_start) < args.seconds) {
    const Rep rep = bench->RunRep(tracer, check);
    attempted += rep.attempted;
    failed += rep.failed;
    check.Expect(rep.modeled == first.modeled,
                 "repetition " + std::to_string(host.size() + 1) +
                     " does not reproduce the first bit-exactly");
    host.push_back(rep.host_s);
    passes.push_back(ReferencePass());
    ratios.push_back(host.back() / passes.back());
  }
  const double host_s =
      kReferencePassSeconds * Quantile(ratios, kHostRatioQuantile);
  // Set-up and the nproc-thread repetitions have no pass of their own; they
  // are scaled by the host's median speed over the run.
  const double pass_s = Quantile(passes, 0.5);
  const double speed = kReferencePassSeconds / pass_s;
  const double setup_s = setup_raw_s * speed;
  std::fprintf(stderr,
               "perfbench %s: %zu timed repetitions, host min %.6f s, "
               "median %.6f s, max %.6f s; reference pass min %.6f s, "
               "median %.6f s; repetition/pass q%.2f %.6f, median %.6f; "
               "set-up %.6f s\n",
               args.workload.c_str(), host.size(), Quantile(host, 0.0),
               Quantile(host, 0.5), Quantile(host, 1.0),
               Quantile(passes, 0.0), pass_s, kHostRatioQuantile,
               Quantile(ratios, kHostRatioQuantile), Quantile(ratios, 0.5),
               setup_raw_s);

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics.push_back({"host_s", host_s, "s"});
    metrics.push_back({"setup_s", setup_s, "s"});
    metrics.push_back({"peak_rss_mib", peak_rss_mib, "MiB"});
    metrics.push_back({"modeled_gtuples_per_s",
                       Ratio(static_cast<double>(first.tuples),
                             first.modeled_seconds) / 1e9,
                       "Gtuples/s"});
  } else {
    const uint64_t launches = bench->LaunchesPerRep(tracer, check);
    metrics.push_back({"data.generate_s", bench->generate_s(), "s"});
    metrics.push_back(
        {"exec.launches", static_cast<double>(launches), "count"});
    metrics.push_back({"exec.host_s_per_launch",
                       Ratio(host_s, static_cast<double>(launches)), "s"});
    metrics.push_back({"exec.host_s_traced", host_s, "s"});
    metrics.push_back({"exec.reference_pass_s", pass_s, "s"});

    // The same operation on every core: modeled results must not move.
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    exec::BlockExecutor::Global().SetThreads(nproc);
    Tracer off(false);
    double nproc_s = 1e300;
    for (size_t i = 0; i < kMinReps; ++i) {
      const Rep rep = bench->RunRep(off, check);
      attempted += rep.attempted;
      failed += rep.failed;
      check.Expect(rep.modeled == first.modeled,
                   "the " + std::to_string(nproc) +
                       "-thread run does not reproduce the 1-thread run");
      nproc_s = std::min(nproc_s, rep.host_s);
    }
    exec::BlockExecutor::Global().SetThreads(1);
    metrics.push_back({"exec.host_s_nproc", nproc_s * speed, "s"});

    PartitionLayer(args.seed, tracer, check, metrics);
    const JoinBench* join_bench = dynamic_cast<JoinBench*>(bench.get());
    CoreLayer(args.seed,
              args.workload == "triton_ooc" ? join_bench->core()
                                            : std::optional<CoreFigures>(),
              tracer, check, metrics);
    SimLayer(first, metrics);
    SanitizerAndJoinLayers(args.seed, tracer, check, metrics);
    ServeMixBench* serve_mix = dynamic_cast<ServeMixBench*>(bench.get());
    std::unique_ptr<ServeMixBench> own_serve;
    if (serve_mix == nullptr) {
      // The serve_mix trace: one cold repetition, then kMinReps warm ones
      // for the serve host-time minima.
      own_serve = std::make_unique<ServeMixBench>(args.seed, false);
      util::Status st = own_serve->Setup(tracer, check);
      check.Expect(st.ok(), "serve layer set-up: " + st.ToString());
      const Rep cold = own_serve->RunRep(tracer, check);
      check.Expect(cold.failed == 0, "serve layer trace had failures");
      for (size_t i = 0; st.ok() && i < kMinReps; ++i) {
        const Rep warm = own_serve->RunRep(tracer, check);
        check.Expect(warm.failed == 0 && warm.modeled == cold.modeled,
                     "serve layer trace does not repeat");
      }
      serve_mix = own_serve.get();
    }
    CpuAndSchedLayers(*serve_mix, tracer, check, metrics);
    ServeLayer(*serve_mix, tracer, metrics);
    if (!args.trace_out.empty() && !tracer.WriteJson(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
    }
  }
  PrintResult(check.ok(), attempted, failed, metrics);
  return check.ok() ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
