//===- perfbench/harness.cpp - End-to-end and per-layer benchmark ------------===//
//
// Part of the CGCM reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures host time and modeled cycles of the whole system on one of
/// three workloads (see perfbench/README.md):
///
///   paper-suite     the 24 paper programs x {unoptimized, optimized} x
///                   {sync, async with 2 streams}, compiled and run in a
///                   closed single-threaded loop (the cgcmc path);
///   fresh-programs  distinct ProgGen programs, default pipeline, each
///                   compiled and run exactly once;
///   server-mix      SessionManager::replay of a seeded sample of the
///                   server mix (24 programs x {opt, unopt} + 8 ProgGen)
///                   on 3 workers under tight device quotas, then a
///                   single-client solo loop over the same mix.
///
/// Every layer is measured from outside, by timing the calls the harness
/// makes into its public functions (parseSource, generateIR,
/// verifyModule, runCGCMPipeline, Machine::loadModule / getDecoded /
/// run, SessionManager::replay / computeLatencies) and by reading deltas
/// of the counters MetricsRegistry already exports and of ExecStats.
/// Every output is checked against a reference made at set-up by the
/// sequential configuration (no parallelization, no management, kernels
/// as CPU loops), so the CGCM passes and runtime never grade themselves.
///
/// The last line of stdout is one JSON object:
///   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
/// with the end-to-end metrics (--trace 0) or the per-layer metrics
/// (--trace 1). Progress and failure details go to stderr.
///
//===----------------------------------------------------------------------===//

#include "exec/Machine.h"
#include "frontend/IRGen.h"
#include "frontend/Parser.h"
#include "fuzz/ProgGen.h"
#include "ir/Verifier.h"
#include "runtime/RuntimeAuditor.h"
#include "server/SessionManager.h"
#include "support/Metrics.h"
#include "transform/Pipeline.h"
#include "workloads/Runner.h"
#include "workloads/Workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace cgcm;

namespace {

//===----------------------------------------------------------------------===//
// Workload constants
//===----------------------------------------------------------------------===//

/// Workers of the server-mix replay: at most 3 on a 4-core machine, so
/// the client thread and the OS keep a core.
constexpr unsigned ServerThreads = 3;
/// The CI tight-quota values: quota eviction runs beside lease lookups.
constexpr uint64_t SessionQuotaBytes = 64ull << 10;
constexpr uint64_t GlobalQuotaBytes = 256ull << 10;
/// server-mix: the request list is this many decks, each deck holding
/// every mix program once in a seeded order, so every seed replays the
/// same composition (1008 requests; p99 has ten samples beyond it).
constexpr size_t ServerDecks = 18;
/// Distinct ProgGen programs in the server mix, one from each size
/// stratum of a seeded pool of MixFuzzPool candidates.
constexpr unsigned MixFuzzPrograms = 8;
constexpr unsigned MixFuzzPool = 64;
/// paper-suite: the modeled request stream is this many passes over the
/// 96 runs, each in its own seeded order (3168 arrivals: p99 has 31
/// samples beyond it, a backlog can build, and the order's effect on
/// the percentiles averages out).
constexpr unsigned PaperModeledPasses = 33;
/// fresh-programs: programs whose modeled figures are reported (the
/// first ones of the timed loop, always completed).
constexpr size_t FreshModeledPrograms = 768;
/// fresh-programs: programs prepared per second of measurement; the
/// loop stops early if it runs out, never repeating a program.
constexpr size_t FreshProgramsPerSecond = 55;
constexpr size_t FreshWarmupPrograms = 24;
/// Programs per chunk of a closed loop: the unit of host-speed
/// normalization (a few hundred ms).
constexpr size_t ChunkPrograms = 8;
/// server-mix: decks per replay call, the replay's normalization unit.
constexpr size_t ReplayChunkDecks = 2;
/// Set-up is repeated this many times per run; setup_s is the median.
constexpr unsigned SetupRepeats = 5;

/// The latency limit of modeled_max_rate_per_mcycle, as a multiple of
/// the stream's p99 solo service cycles.
constexpr double LatencyLimitTimesP99Service = 3.0;

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// splitmix64: derives every generated input from the seed argument.
uint64_t splitmix(uint64_t &State) {
  State += 0x9E3779B97F4A7C15ull;
  uint64_t Z = State;
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

/// Percentile \p P of a sorted sample, interpolating linearly between
/// the two nearest order statistics.
double sortedPercentile(const std::vector<double> &V, double P) {
  if (V.empty())
    return 0;
  double H = P * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(H);
  if (Lo + 1 >= V.size())
    return V.back();
  return V[Lo] + (H - static_cast<double>(Lo)) * (V[Lo + 1] - V[Lo]);
}

double percentile(std::vector<double> V, double P) {
  std::sort(V.begin(), V.end());
  return sortedPercentile(V, P);
}

/// Percentile \p P of host times, smoothed: the mean of the percentiles
/// from P - 0.05 to P + 0.05 in steps of 0.01. Program times cluster, so
/// a plain percentile that falls in a gap between clusters jumps with
/// small shifts in speed; the band average moves with them smoothly.
double smoothPercentile(std::vector<double> V, double P) {
  std::sort(V.begin(), V.end());
  double Sum = 0;
  for (int I = -5; I <= 5; ++I)
    Sum += sortedPercentile(V, P + 0.01 * I);
  return Sum / 11;
}

double median(std::vector<double> V) { return percentile(std::move(V), 0.5); }

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double L = 0;
  for (double X : V)
    L += std::log(X);
  return std::exp(L / static_cast<double>(V.size()));
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

//===----------------------------------------------------------------------===//
// Host speed normalization
//===----------------------------------------------------------------------===//

/// Keeps the probe's work observable (several probes may run at once).
std::atomic<uint64_t> ProbeSink{0};

/// A fixed CPU-bound loop that shares no code with the system under
/// test: ordered-map inserts and lookups, scattered stores, string
/// building, and heap churn of small vectors (of the probes tried, the
/// allocator-heavy part tracked the interpreter's slowdowns best).
/// Returns its host time in ms.
double probeMs() {
  Clock::time_point T0 = Clock::now();
  uint64_t X = 88172645463325252ull, Acc = 0;
  auto Next = [&X] {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    return X;
  };
  std::map<uint64_t, uint64_t> M;
  std::vector<uint64_t> V(1 << 15);
  for (int I = 0; I < 4000; ++I)
    M[Next() & 0xffff] = static_cast<uint64_t>(I);
  for (int I = 0; I < 40000; ++I) {
    auto It = M.lower_bound(Next() & 0xffff);
    if (It != M.end())
      Acc += It->second;
    V[X & (V.size() - 1)] += Acc;
  }
  std::string S;
  for (int I = 0; I < 2000; ++I)
    S += std::to_string(X + static_cast<uint64_t>(I));
  std::vector<std::unique_ptr<std::vector<int>>> Heap;
  for (int I = 0; I < 20000; ++I) {
    Heap.emplace_back(new std::vector<int>(Next() % 64 + 1, I));
    if (Heap.size() > 512) {
      Acc += Heap.front()->size();
      Heap.erase(Heap.begin(), Heap.begin() + 256);
    }
  }
  ProbeSink.store(Acc + S.size(), std::memory_order_relaxed);
  return msBetween(T0, Clock::now());
}

/// The host this benchmark was built on is a shared 4-vCPU VM (2.1 GHz)
/// whose speed swings by up to 1.6x within seconds as neighbours come
/// and go. Host times are therefore normalized to a reference speed:
/// the probe runs before and after every chunk of measured work (a few
/// hundred ms to two seconds), and the chunk's times are scaled by
/// (ProbeRefMs / mean of the two probes) ^ Sensitivity. ProbeRefMs is
/// the probe's fastest time on that VM, so normalized times read as ms
/// on a quiet machine of that kind. The exponents were fitted on that
/// VM: single-threaded compiling and interpreting lose about 1.5x the
/// share of speed the probe loses (fits of 1.44 on paper-suite and 1.67
/// on fresh-programs runs); the 3-worker replay, probed on 3 threads at
/// once, loses only about half the probe's share (fits of 0.39 and 0.5
/// on server-mix runs).
constexpr double ProbeRefMs = 6.0;

class SpeedGauge {
public:
  /// \p Threads probes run at once (their mean is the reading).
  explicit SpeedGauge(unsigned Threads = 1, double Sensitivity = 1.5)
      : Threads(Threads), Sensitivity(Sensitivity), Last(read()) {}
  /// Host time spent probing so far, in ms.
  double spentMs() const { return Spent; }
  /// Closes a chunk: probes again and returns the chunk's speed factor.
  double next() {
    double P = read();
    double F = std::pow(ProbeRefMs / ((Last + P) / 2), Sensitivity);
    Last = P;
    return F;
  }

private:
  double read() {
    Clock::time_point T0 = Clock::now();
    double P = Threads == 1 ? probeMs() : parallelProbeMs();
    Spent += msBetween(T0, Clock::now());
    return P;
  }
  double parallelProbeMs() const {
    std::vector<double> Ms(Threads);
    std::vector<std::thread> Probes;
    for (unsigned T = 0; T < Threads; ++T)
      Probes.emplace_back([&Ms, T] { Ms[T] = probeMs(); });
    for (std::thread &T : Probes)
      T.join();
    double Sum = 0;
    for (double X : Ms)
      Sum += X;
    return Sum / Threads;
  }

  unsigned Threads;
  double Sensitivity;
  double Spent = 0;
  double Last;
};

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

enum class Layer : uint8_t { Harness, Frontend, IR, Pass, Exec, Server };

const char *layerName(Layer L) {
  switch (L) {
  case Layer::Harness:
    return "harness";
  case Layer::Frontend:
    return "frontend";
  case Layer::IR:
    return "ir";
  case Layer::Pass:
    return "pass";
  case Layer::Exec:
    return "exec";
  case Layer::Server:
    return "server";
  }
  return "?";
}

struct Span {
  uint32_t Id;      ///< Program run or request batch the span belongs to.
  Layer L;
  const char *Name; ///< The layer call (a string literal).
  Clock::time_point Start, End;
  int32_t Parent;   ///< Index of the enclosing span, -1 for a root.
};

/// Records one span per layer call the harness makes, in memory; written
/// out when the run ends. Disabled, it records nothing.
class Tracer {
public:
  explicit Tracer(bool On) : On(On) {}

  int32_t begin(uint32_t Id, Layer L, const char *Name, int32_t Parent,
                Clock::time_point Start) {
    if (!On)
      return -1;
    Spans.push_back({Id, L, Name, Start, Start, Parent});
    return static_cast<int32_t>(Spans.size() - 1);
  }
  void end(int32_t S, Clock::time_point End) {
    if (S >= 0)
      Spans[static_cast<size_t>(S)].End = End;
  }
  /// A completed child span.
  void span(uint32_t Id, Layer L, const char *Name, int32_t Parent,
            Clock::time_point Start, Clock::time_point End) {
    end(begin(Id, L, Name, Parent, Start), End);
  }

  const std::vector<Span> &spans() const { return Spans; }

  /// Self time per layer in ms: each span's duration minus the part its
  /// children cover (children of one span never overlap here).
  std::map<Layer, double> selfMs() const {
    std::vector<double> Child(Spans.size(), 0.0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Child[static_cast<size_t>(S.Parent)] += msBetween(S.Start, S.End);
    std::map<Layer, double> Self;
    for (size_t I = 0; I < Spans.size(); ++I)
      Self[Spans[I].L] += msBetween(Spans[I].Start, Spans[I].End) - Child[I];
    return Self;
  }

  /// Chrome trace_event JSON, microseconds from \p Origin.
  bool write(const std::string &Path, Clock::time_point Origin) const {
    std::ofstream OS(Path);
    if (!OS)
      return false;
    OS << "{\"traceEvents\":[";
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      char Buf[320];
      std::snprintf(Buf, sizeof(Buf),
                    "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                    "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                    "\"args\":{\"span\":%zu,\"id\":%u,\"parent\":%d}}",
                    I ? "," : "", S.Name, layerName(S.L),
                    msBetween(Origin, S.Start) * 1e3,
                    msBetween(S.Start, S.End) * 1e3, I, S.Id, S.Parent);
      OS << Buf;
    }
    OS << "\n]}\n";
    return static_cast<bool>(OS);
  }

private:
  bool On;
  std::vector<Span> Spans;
};

//===----------------------------------------------------------------------===//
// Registry deltas
//===----------------------------------------------------------------------===//

/// The counter values and histogram count/sum pairs of MetricsRegistry
/// at one instant; the harness reads layers by differencing two views.
struct RegistryView {
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, std::pair<uint64_t, uint64_t>> Hists;

  static RegistryView read() {
    RegistryView V;
    MetricsSnapshot S = MetricsRegistry::get().snapshot();
    for (const CounterSnapshot &C : S.Counters)
      V.Counters[C.Name] = C.Value;
    for (const HistogramSnapshot &H : S.Histograms)
      V.Hists[H.Name] = {H.Count, H.Sum};
    return V;
  }
};

struct RegistryDelta {
  RegistryView Before, After;

  uint64_t counter(const std::string &N) const {
    return get(After.Counters, N) - get(Before.Counters, N);
  }
  uint64_t histCount(const std::string &N) const {
    return getH(After.Hists, N).first - getH(Before.Hists, N).first;
  }
  uint64_t histSum(const std::string &N) const {
    return getH(After.Hists, N).second - getH(Before.Hists, N).second;
  }
  /// Sum of the histogram-sum deltas of every name with \p Prefix and
  /// \p Suffix.
  uint64_t histSumMatching(const std::string &Prefix,
                           const std::string &Suffix) const {
    uint64_t Total = 0;
    for (const auto &[N, CS] : After.Hists)
      if (matches(N, Prefix, Suffix))
        Total += CS.second - getH(Before.Hists, N).second;
    return Total;
  }
  uint64_t counterMatching(const std::string &Prefix,
                           const std::string &Suffix) const {
    uint64_t Total = 0;
    for (const auto &[N, V] : After.Counters)
      if (matches(N, Prefix, Suffix))
        Total += V - get(Before.Counters, N);
    return Total;
  }

private:
  static bool matches(const std::string &N, const std::string &Prefix,
                      const std::string &Suffix) {
    return N.size() >= Prefix.size() + Suffix.size() &&
           N.compare(0, Prefix.size(), Prefix) == 0 &&
           N.compare(N.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
  }
  static uint64_t get(const std::map<std::string, uint64_t> &M,
                      const std::string &N) {
    auto It = M.find(N);
    return It == M.end() ? 0 : It->second;
  }
  static std::pair<uint64_t, uint64_t>
  getH(const std::map<std::string, std::pair<uint64_t, uint64_t>> &M,
       const std::string &N) {
    auto It = M.find(N);
    return It == M.end() ? std::pair<uint64_t, uint64_t>{0, 0} : It->second;
  }
};

//===----------------------------------------------------------------------===//
// Programs and their references
//===----------------------------------------------------------------------===//

struct Program {
  std::string Name;
  std::string Source;
  BenchConfig Config = BenchConfig::CGCMOptimized;
  unsigned Streams = 0; ///< Async streams; 0 = synchronous.
  size_t Ref = 0;       ///< Index of its reference output.
};

struct Reference {
  std::string Output;
  double SeqCycles = 0; ///< Modeled wall cycles of the sequential run.
};

Reference makeReference(const std::string &Name, const std::string &Source) {
  Workload W;
  W.Name = Name;
  W.Source = Source;
  WorkloadRun R = runWorkload(W, BenchConfig::Sequential);
  return {R.Output, R.TotalCycles};
}

/// Host time of one compile-and-run, per layer call, in ms.
struct RunTimes {
  double Parse = 0, IRGen = 0, Verify = 0, Pipeline = 0;
  double Load = 0, Decode = 0, Run = 0, Teardown = 0;
  double compile() const { return Parse + IRGen + Verify + Pipeline; }
  double execute() const { return Load + Decode + Run + Teardown; }
};

struct RunResult {
  std::string Output;
  ExecStats Stats;
  RunTimes T;
  uint64_t Instructions = 0; ///< IR instructions after the pipeline.
  std::string Error;         ///< Verifier or audit failure; empty if clean.
};

/// Compiles and runs \p P exactly as runWorkload does, timing each layer
/// call. Managed runs carry a RuntimeAuditor whose end-of-run sweep is
/// outside the timed calls.
RunResult compileAndRun(const Program &P, uint32_t Id, Tracer &Tr) {
  RunResult R;
  Clock::time_point T0 = Clock::now();
  int32_t Root = Tr.begin(Id, Layer::Harness, "program", -1, T0);

  TranslationUnit TU = parseSource(P.Source);
  Clock::time_point T1 = Clock::now();
  std::unique_ptr<Module> M = generateIR(TU, P.Name);
  Clock::time_point T2 = Clock::now();
  std::string Err;
  bool Valid = verifyModule(*M, &Err);
  Clock::time_point T3 = Clock::now();
  if (!Valid) {
    R.Error = "IR verification failed after frontend: " + Err;
    Tr.end(Root, T3);
    return R;
  }
  PipelineOptions Opts;
  if (P.Config == BenchConfig::CGCMUnoptimized)
    Opts.Optimize = false;
  runCGCMPipeline(*M, Opts);
  Clock::time_point T4 = Clock::now();

  Clock::time_point T5, T6, T7, T8;
  {
    RuntimeAuditor Auditor;
    Machine Mach;
    Mach.setLaunchPolicy(LaunchPolicy::Managed);
    Mach.setOpLimit(500u * 1000u * 1000u);
    Mach.setAsyncTransfers(P.Streams);
    Mach.getRuntime().setObserver(&Auditor);
    Mach.loadModule(*M);
    T5 = Clock::now();
    for (const auto &F : M->functions())
      if (!F->isDeclaration())
        Mach.getDecoded(F.get());
    T6 = Clock::now();
    Mach.run();
    T7 = Clock::now();
    R.Output = Mach.getOutput();
    R.Stats = Mach.getStats();
    Auditor.finish(Mach.getRuntime(), Mach.getDevice(), Mach.getStats());
    if (!Auditor.getReport().clean())
      R.Error = "audit: " + Auditor.getReport().str();
    Mach.getRuntime().setObserver(nullptr);
    T8 = Clock::now();
  }
  Clock::time_point T9 = Clock::now();

  R.T = {msBetween(T0, T1), msBetween(T1, T2), msBetween(T2, T3),
         msBetween(T3, T4), msBetween(T4, T5), msBetween(T5, T6),
         msBetween(T6, T7), msBetween(T8, T9)};
  for (const auto &F : M->functions())
    for (const auto &BB : *F)
      R.Instructions += BB->size();

  Tr.span(Id, Layer::Frontend, "parseSource", Root, T0, T1);
  Tr.span(Id, Layer::Frontend, "generateIR", Root, T1, T2);
  Tr.span(Id, Layer::IR, "verifyModule", Root, T2, T3);
  Tr.span(Id, Layer::Pass, "runCGCMPipeline", Root, T3, T4);
  Tr.span(Id, Layer::Exec, "Machine::loadModule", Root, T4, T5);
  Tr.span(Id, Layer::Exec, "Machine::getDecoded", Root, T5, T6);
  Tr.span(Id, Layer::Exec, "Machine::run", Root, T6, T7);
  Tr.span(Id, Layer::Exec, "Machine::~Machine", Root, T8, T9);
  Tr.end(Root, Clock::now());
  return R;
}

//===----------------------------------------------------------------------===//
// Accumulation
//===----------------------------------------------------------------------===//

/// Everything a measurement window observed. Host times are normalized
/// to the reference speed (see SpeedGauge) unless named Raw.
struct Window {
  double WallRawMs = 0;
  double ProbeRawMs = 0; ///< Spent in SpeedGauge probes, inside WallRawMs.
  // Closed-loop compile-and-run.
  size_t Programs = 0;
  double LoopRawMs = 0, LoopMs = 0;
  std::vector<double> CompileMs, ExecuteMs;
  RunTimes Sum;
  uint64_t Instructions = 0, Ops = 0, KernelLaunches = 0, RuntimeCalls = 0,
           EpochSuppressed = 0;
  RegistryDelta LoopReg;
  // Server replay.
  size_t Requests = 0;
  double ReplayRawMs = 0, ReplayMs = 0;
  /// Requests per second of each replay call; requests_per_s is their
  /// median, so one call caught in a slow spell does not move it.
  std::vector<double> ReplayRates;
  RegistryDelta ReplayReg;
  // Correctness.
  size_t Attempted = 0, Failed = 0;
  std::vector<std::string> FailedNames;

  /// Adds a run measured at speed factor \p F.
  void addRun(const RunResult &R, double F) {
    ++Programs;
    CompileMs.push_back(R.T.compile() * F);
    ExecuteMs.push_back(R.T.execute() * F);
    Sum.Parse += R.T.Parse * F;
    Sum.IRGen += R.T.IRGen * F;
    Sum.Verify += R.T.Verify * F;
    Sum.Pipeline += R.T.Pipeline * F;
    Sum.Load += R.T.Load * F;
    Sum.Decode += R.T.Decode * F;
    Sum.Run += R.T.Run * F;
    Sum.Teardown += R.T.Teardown * F;
    Instructions += R.Instructions;
    Ops += R.Stats.CpuOps + R.Stats.GpuOps;
    KernelLaunches += R.Stats.KernelLaunches;
    RuntimeCalls += R.Stats.RuntimeCalls;
    EpochSuppressed += R.Stats.EpochSuppressedCopies;
  }
  /// The loop's mean speed factor (normalized over raw time).
  double loopFactor() const { return LoopRawMs > 0 ? LoopMs / LoopRawMs : 1; }
  double replayFactor() const {
    return ReplayRawMs > 0 ? ReplayMs / ReplayRawMs : 1;
  }
  double programsPerSecond() const {
    return static_cast<double>(Programs) / (LoopMs / 1e3);
  }
  void check(bool Ok, const std::string &Name, const std::string &Why) {
    ++Attempted;
    if (Ok)
      return;
    ++Failed;
    if (FailedNames.size() < 64)
      FailedNames.push_back(Name + ": " + Why.substr(0, 200));
  }
  void checkRun(const RunResult &R, const Reference &Ref,
                const std::string &Name) {
    if (!R.Error.empty())
      check(false, Name, R.Error);
    else
      check(R.Output == Ref.Output, Name, "output differs from reference");
  }
};

/// Modeled figures of a fixed, seed-determined prefix of a workload's
/// runs; they repeat bit-exactly for a seed.
struct Modeled {
  std::vector<ServerResponse> Stream; ///< ServiceCycles in arrival order.
  std::vector<double> Speedups;       ///< Sequential / config wall cycles.
  double BytesMoved = 0;
  double CpuCycles = 0, GpuCycles = 0, CommCycles = 0, RuntimeCycles = 0,
         StallCycles = 0;
  uint64_t Transfers = 0, DmaBatches = 0, Coalesced = 0;

  void add(const ExecStats &S, double SeqCycles) {
    ServerResponse R;
    R.ServiceCycles = S.wallCycles();
    Stream.push_back(R);
    Speedups.push_back(SeqCycles / S.wallCycles());
    BytesMoved += static_cast<double>(S.BytesHtoD + S.BytesDtoH + S.BytesP2P);
    CpuCycles += S.CpuCycles;
    GpuCycles += S.GpuCycles;
    CommCycles += S.CommCycles;
    RuntimeCycles += S.RuntimeCycles;
    StallCycles += S.StallCycles;
    Transfers += S.TransfersHtoD + S.TransfersDtoH + S.TransfersP2P;
    DmaBatches += S.DmaBatches;
    Coalesced += S.CoalescedTransfers;
  }
};

ServerConfig serverConfig() {
  ServerConfig SC;
  SC.Threads = ServerThreads;
  SC.Quotas.SessionDeviceBytes = SessionQuotaBytes;
  SC.Quotas.GlobalDeviceBytes = GlobalQuotaBytes;
  return SC;
}

/// Modeled latency of \p Stream at \p Spacing through the server's
/// deterministic queueing post-pass.
std::vector<ServerResponse> modelAt(std::vector<ServerResponse> Stream,
                                    double Spacing) {
  ServerConfig SC = serverConfig();
  SC.ArrivalSpacingCycles = Spacing;
  SessionManager::computeLatencies(Stream, SC);
  return Stream;
}

std::vector<double> latencies(const std::vector<ServerResponse> &Rs) {
  std::vector<double> L;
  for (const ServerResponse &R : Rs)
    L.push_back(R.LatencyCycles);
  return L;
}

/// Highest arrival rate (per million cycles) on a fixed geometric ladder
/// of spacings, 1e9 down to 1e3 cycles in 2% steps, whose modeled p99
/// stays under the limit without a growing backlog: rates at or above
/// the lanes' capacity (mean service cycles / lanes per arrival) never
/// count, however short the stream. Very low rates can fail too, since a
/// batch is admitted only once its last member has arrived.
double maxRatePerMcycle(const std::vector<ServerResponse> &Stream) {
  double Service = 0;
  std::vector<double> Services;
  for (const ServerResponse &R : Stream) {
    Service += R.ServiceCycles;
    Services.push_back(R.ServiceCycles);
  }
  double Limit = LatencyLimitTimesP99Service * percentile(Services, 0.99);
  double Capacity = Service / static_cast<double>(Stream.size()) /
                    static_cast<double>(ServerThreads);
  double Best = 0;
  for (double Spacing = 1e9; Spacing > Capacity && Spacing >= 1e3;
       Spacing /= 1.02)
    if (percentile(latencies(modelAt(Stream, Spacing)), 0.99) <= Limit)
      Best = 1e6 / Spacing;
  return Best;
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

struct Inputs {
  std::vector<Program> Programs; ///< Paper/fresh runs, or the server mix.
  std::vector<Reference> Refs;
  std::vector<Program> Warmup;   ///< fresh-programs only.
  /// paper-suite: the seeded run order of each pass (PaperModeledPasses
  /// permutations of Programs, reused cyclically).
  std::vector<std::vector<size_t>> PassOrders;
  std::vector<size_t> Requests;  ///< server-mix: mix indices, in order.
};

enum class WorkloadKind { PaperSuite, FreshPrograms, ServerMix };

struct Options {
  WorkloadKind Kind = WorkloadKind::PaperSuite;
  std::string WorkloadName;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceOut;
};

/// The deterministic latency model (SessionManager::computeLatencies)
/// is applied to every workload's stream of runs at one fixed arrival
/// spacing per workload, chosen at seed 1 to keep the 3 lanes about 60%
/// busy. (BENCH_server.json's 100k-cycle spacing is about 3x over the
/// mix's capacity, so its latencies measure a growing backlog.)
double fixedSpacingCycles(WorkloadKind K) {
  switch (K) {
  case WorkloadKind::PaperSuite:
    return 1.2e6;
  case WorkloadKind::FreshPrograms:
    return 3.2e4;
  case WorkloadKind::ServerMix:
    return 1.4e6;
  }
  return 1e6;
}

std::string freshName(uint64_t S) { return "proggen-" + std::to_string(S); }

/// Generates the inputs of a run from the seed and computes the
/// sequential references. Deterministic in (workload, seed, seconds).
Inputs setUp(const Options &O) {
  Inputs In;
  uint64_t Rng = O.Seed;
  switch (O.Kind) {
  case WorkloadKind::PaperSuite: {
    for (const Workload &W : getWorkloads()) {
      In.Refs.push_back(makeReference(W.Name, W.Source));
      for (BenchConfig C :
           {BenchConfig::CGCMUnoptimized, BenchConfig::CGCMOptimized})
        for (unsigned Streams : {0u, 2u})
          In.Programs.push_back({W.Name + "/" + getConfigName(C) +
                                     (Streams ? "/async2" : "/sync"),
                                 W.Source, C, Streams, In.Refs.size() - 1});
    }
    // The seed fixes the order of the runs, a new one per pass.
    for (unsigned Pass = 0; Pass < PaperModeledPasses; ++Pass) {
      std::vector<size_t> Order(In.Programs.size());
      for (size_t I = 0; I < Order.size(); ++I)
        Order[I] = I;
      for (size_t I = Order.size(); I > 1; --I)
        std::swap(Order[I - 1], Order[static_cast<size_t>(splitmix(Rng) % I)]);
      In.PassOrders.push_back(std::move(Order));
    }
    break;
  }
  case WorkloadKind::FreshPrograms: {
    size_t N = std::max(FreshModeledPrograms,
                        static_cast<size_t>(O.Seconds *
                                            FreshProgramsPerSecond));
    auto Make = [&](std::vector<Program> &Out, size_t Count) {
      for (size_t I = 0; I < Count; ++I) {
        uint64_t S = splitmix(Rng);
        Program P{freshName(S), generateProgram(S).render(),
                  BenchConfig::CGCMOptimized, 0, In.Refs.size()};
        In.Refs.push_back(makeReference(P.Name, P.Source));
        Out.push_back(std::move(P));
      }
    };
    Make(In.Warmup, FreshWarmupPrograms);
    Make(In.Programs, N);
    break;
  }
  case WorkloadKind::ServerMix: {
    for (const Workload &W : getWorkloads()) {
      In.Refs.push_back(makeReference(W.Name, W.Source));
      In.Programs.push_back({W.Name, W.Source, BenchConfig::CGCMOptimized, 0,
                             In.Refs.size() - 1});
      In.Programs.push_back({W.Name + "+unopt", W.Source,
                             BenchConfig::CGCMUnoptimized, 0,
                             In.Refs.size() - 1});
    }
    // ProgGen sizes vary widely, and 8 plain draws would decide the
    // mix's compile-time tail by luck of the seed. Stratified sampling
    // keeps the draw from the seed but takes the median-sized candidate
    // of each eighth of the pool, ordered by source length.
    std::vector<std::pair<uint64_t, std::string>> Pool;
    for (unsigned I = 0; I < MixFuzzPool; ++I) {
      uint64_t S = splitmix(Rng);
      Pool.emplace_back(S, generateProgram(S).render());
    }
    std::stable_sort(Pool.begin(), Pool.end(), [](const auto &A, const auto &B) {
      return A.second.size() < B.second.size();
    });
    const unsigned Stratum = MixFuzzPool / MixFuzzPrograms;
    for (unsigned I = 0; I < MixFuzzPrograms; ++I) {
      auto &[S, Source] = Pool[I * Stratum + Stratum / 2];
      Program P{freshName(S), std::move(Source), BenchConfig::CGCMOptimized,
                0, In.Refs.size()};
      In.Refs.push_back(makeReference(P.Name, P.Source));
      In.Programs.push_back(std::move(P));
    }
    for (size_t D = 0; D < ServerDecks; ++D) {
      size_t Base = In.Requests.size();
      for (size_t P = 0; P < In.Programs.size(); ++P)
        In.Requests.push_back(P);
      for (size_t I = In.Programs.size(); I > 1; --I)
        std::swap(In.Requests[Base + I - 1],
                  In.Requests[Base + static_cast<size_t>(splitmix(Rng) % I)]);
    }
    break;
  }
  }
  return In;
}

ServerRequest toRequest(const Program &P) {
  return {P.Name, P.Source, P.Config};
}

/// Runs one measurement window. \p Solo holds, for server-mix, each mix
/// program's solo ExecStats (from the warm-up), which stand for every
/// request of that program: a session's machine is private, so its
/// modeled run is identical to the solo one (checked via ServiceCycles).
Window measure(const Options &O, const Inputs &In,
               const std::vector<ExecStats> &Solo, Tracer &Tr,
               Modeled &Mod) {
  Window W;
  Clock::time_point Start = Clock::now();
  Clock::time_point Deadline =
      Start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(O.Seconds));
  SpeedGauge Gauge;
  uint32_t NextId = 1;
  std::vector<RunResult> Pending;
  Clock::time_point C0 = Clock::now();
  // Closes a chunk of the closed loop; the probe is outside its time.
  auto EndChunk = [&] {
    Clock::time_point C1 = Clock::now();
    double F = Gauge.next();
    W.LoopRawMs += msBetween(C0, C1);
    W.LoopMs += msBetween(C0, C1) * F;
    for (const RunResult &R : Pending)
      W.addRun(R, F);
    Pending.clear();
    C0 = Clock::now();
  };
  // Runs and checks one program; returns its modeled statistics.
  auto RunOne = [&](const Program &P, bool Model) {
    Pending.push_back(compileAndRun(P, NextId++, Tr));
    const RunResult &R = Pending.back();
    ExecStats Stats = R.Stats;
    W.checkRun(R, In.Refs[P.Ref], P.Name);
    if (Model)
      Mod.add(Stats, In.Refs[P.Ref].SeqCycles);
    if (Pending.size() == ChunkPrograms)
      EndChunk();
    return Stats;
  };
  auto BeginLoop = [&] {
    W.LoopReg.Before = RegistryView::read();
    W.ProbeRawMs += Gauge.spentMs();
    Gauge = SpeedGauge();
    C0 = Clock::now();
  };
  auto FinishLoop = [&] {
    if (!Pending.empty())
      EndChunk();
    W.LoopReg.After = RegistryView::read();
  };

  switch (O.Kind) {
  case WorkloadKind::PaperSuite: {
    // Whole passes only, so every (program, config) weighs the same. Each
    // run's modeled cycles must repeat those of its first run exactly;
    // the modeled stream is the first PaperModeledPasses passes.
    BeginLoop();
    std::vector<double> First(In.Programs.size());
    size_t Pass = 0;
    do {
      for (size_t I : In.PassOrders[Pass % In.PassOrders.size()]) {
        const Program &P = In.Programs[I];
        double Cycles = RunOne(P, Pass == 0).wallCycles();
        if (Pass == 0)
          First[I] = Cycles;
        else if (Cycles != First[I])
          W.check(false, P.Name, "modeled cycles differ between passes");
      }
      ++Pass;
    } while (Clock::now() < Deadline);
    FinishLoop();
    // The suite counts once in bytes, speedups and gpusim totals; the
    // latency stream continues with the later orders.
    for (size_t K = 1; K < In.PassOrders.size(); ++K)
      for (size_t I : In.PassOrders[K]) {
        ServerResponse R;
        R.ServiceCycles = First[I];
        Mod.Stream.push_back(R);
      }
    break;
  }
  case WorkloadKind::FreshPrograms: {
    BeginLoop();
    for (size_t I = 0; I < In.Programs.size(); ++I) {
      if (I >= FreshModeledPrograms && I % ChunkPrograms == 0 &&
          Clock::now() >= Deadline)
        break;
      RunOne(In.Programs[I], I < FreshModeledPrograms);
    }
    FinishLoop();
    break;
  }
  case WorkloadKind::ServerMix: {
    // One long-lived server replays the fixed request list in chunks of
    // whole decks; the index and its leases persist across chunks.
    SessionManager Mgr(serverConfig());
    SpeedGauge ReplayGauge(ServerThreads, 0.5);
    W.ReplayReg.Before = RegistryView::read();
    std::vector<ServerResponse> Rs;
    const size_t ReplayChunk = ReplayChunkDecks * In.Programs.size();
    for (size_t Head = 0; Head < In.Requests.size(); Head += ReplayChunk) {
      std::vector<ServerRequest> Reqs;
      for (size_t I = Head; I < In.Requests.size() && I < Head + ReplayChunk;
           ++I)
        Reqs.push_back(toRequest(In.Programs[In.Requests[I]]));
      Clock::time_point R0 = Clock::now();
      int32_t S = Tr.begin(static_cast<uint32_t>(Head / ReplayChunk),
                           Layer::Server, "SessionManager::replay", -1, R0);
      std::vector<ServerResponse> Part = Mgr.replay(Reqs);
      Clock::time_point R1 = Clock::now();
      Tr.end(S, R1);
      double Ms = msBetween(R0, R1) * ReplayGauge.next();
      W.ReplayRawMs += msBetween(R0, R1);
      W.ReplayMs += Ms;
      W.ReplayRates.push_back(static_cast<double>(Part.size()) / (Ms / 1e3));
      Rs.insert(Rs.end(), Part.begin(), Part.end());
    }
    W.ReplayReg.After = RegistryView::read();
    W.ProbeRawMs += ReplayGauge.spentMs();
    W.Requests = Rs.size();
    for (size_t I = 0; I < Rs.size(); ++I) {
      const Program &P = In.Programs[In.Requests[I]];
      const ExecStats &SoloStats = Solo[In.Requests[I]];
      std::string Name =
          "request " + std::to_string(I + 1) + " (" + P.Name + ")";
      if (!Rs[I].Ok)
        W.check(false, Name, Rs[I].Error);
      else if (Rs[I].Output != In.Refs[P.Ref].Output)
        W.check(false, Name, "output differs from reference");
      else
        W.check(Rs[I].ServiceCycles == SoloStats.wallCycles(), Name,
                "service cycles differ from the solo run");
      Mod.add(SoloStats, In.Refs[P.Ref].SeqCycles);
      Mod.Stream.back().ServiceCycles = Rs[I].ServiceCycles;
    }
    // Single-client solo loop over the mix for the rest of the window:
    // whole passes in mix order, at least two.
    BeginLoop();
    unsigned Passes = 0;
    do {
      for (const Program &P : In.Programs)
        RunOne(P, false);
      ++Passes;
    } while (Passes < 2 || Clock::now() < Deadline);
    FinishLoop();
    break;
  }
  }
  W.WallRawMs = msBetween(Start, Clock::now());
  W.ProbeRawMs += Gauge.spentMs();
  return W;
}

/// One untimed pass of the workload: instruments are created, the
/// allocator grows and (server-mix) the solo stats are collected. Its
/// outputs are checked into \p W too.
std::vector<ExecStats> warmUp(const Options &O, const Inputs &In, Window &W) {
  Tracer Off(false);
  std::vector<ExecStats> Solo;
  auto Check = [&](const Program &P) {
    RunResult R = compileAndRun(P, 0, Off);
    W.checkRun(R, In.Refs[P.Ref], P.Name);
    Solo.push_back(R.Stats);
  };
  switch (O.Kind) {
  case WorkloadKind::PaperSuite:
    for (const Program &P : In.Programs)
      Check(P);
    break;
  case WorkloadKind::FreshPrograms:
    for (const Program &P : In.Warmup)
      Check(P);
    break;
  case WorkloadKind::ServerMix: {
    for (const Program &P : In.Programs)
      Check(P);
    std::vector<ServerRequest> Reqs;
    for (size_t I = 0; I < 48 && I < In.Requests.size(); ++I)
      Reqs.push_back(toRequest(In.Programs[In.Requests[I]]));
    SessionManager Mgr(serverConfig());
    Mgr.replay(Reqs);
    break;
  }
  }
  return Solo;
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

class MetricSink {
public:
  void add(const std::string &Name, double Value, const char *Unit) {
    if (!std::isfinite(Value))
      Value = 0;
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
    Items.push_back("\"" + Name + "\": {\"value\": " + Buf +
                    ", \"unit\": \"" + Unit + "\"}");
  }
  std::string json() const {
    std::string S = "{";
    for (size_t I = 0; I < Items.size(); ++I)
      S += (I ? ", " : "") + Items[I];
    return S + "}";
  }

private:
  std::vector<std::string> Items;
};

void endToEnd(MetricSink &M, const Options &O, const Window &W,
              const Modeled &Mod, double SetupS) {
  std::vector<double> Lat =
      latencies(modelAt(Mod.Stream, fixedSpacingCycles(O.Kind)));
  double Pps = W.programsPerSecond();
  // paper-suite and fresh-programs have one client and no server: each
  // program compiled and run is its request.
  double Rps =
      W.Requests ? median(W.ReplayRates) : Pps;
  M.add("setup_s", SetupS, "s");
  M.add("programs_per_s", Pps, "1/s");
  M.add("compile_ms.p50", smoothPercentile(W.CompileMs, 0.5), "ms");
  M.add("compile_ms.p90", smoothPercentile(W.CompileMs, 0.9), "ms");
  M.add("execute_ms.p50", smoothPercentile(W.ExecuteMs, 0.5), "ms");
  M.add("execute_ms.p90", smoothPercentile(W.ExecuteMs, 0.9), "ms");
  M.add("requests_per_s", Rps, "1/s");
  M.add("modeled_latency_cycles.p50", percentile(Lat, 0.5), "cycles");
  M.add("modeled_latency_cycles.p99", percentile(Lat, 0.99), "cycles");
  M.add("modeled_max_rate_per_mcycle",
        maxRatePerMcycle(Mod.Stream), "1/Mcycle");
  M.add("modeled_speedup.geomean", geomean(Mod.Speedups), "x");
  M.add("modeled_bytes_moved", Mod.BytesMoved, "bytes");
  M.add("correct_frac",
        1.0 - static_cast<double>(W.Failed) /
                  static_cast<double>(std::max<size_t>(1, W.Attempted)),
        "fraction");
  M.add("peak_rss_mb", peakRssMb(), "MB");
}

const char *const PassNames[] = {"mem2reg",        "doall",       "comm",
                                 "glue",           "alloca-promote",
                                 "map-promote",    "simplify",    "verify",
                                 "verify-par"};

void perLayer(MetricSink &M, const Options &O, const Window &W,
              const Modeled &Mod, const Tracer &Tr, double UntracedPps) {
  double N = static_cast<double>(std::max<size_t>(1, W.Programs));
  // Pass and analysis counters accumulate in the replay's sessions too.
  auto Both = [&](auto Fn) { return Fn(W.LoopReg) + Fn(W.ReplayReg); };
  double Compiles = N + static_cast<double>(W.Requests);

  M.add("frontend.parse_ms", W.Sum.Parse / N, "ms");
  M.add("frontend.irgen_ms", W.Sum.IRGen / N, "ms");
  M.add("ir.verify_ms", W.Sum.Verify / N, "ms");
  M.add("ir.instructions", static_cast<double>(W.Instructions) / N, "count");
  M.add("pass.pipeline_ms", W.Sum.Pipeline / N, "ms");
  for (const char *P : PassNames) {
    std::string Base = std::string("pass.") + P;
    // Registry times are raw host time: scale each phase by its mean
    // speed factor.
    double Us =
        static_cast<double>(W.LoopReg.histSum(Base + ".wall_us")) *
            W.loopFactor() +
        static_cast<double>(W.ReplayReg.histSum(Base + ".wall_us")) *
            W.replayFactor();
    double Runs = static_cast<double>(Both(
        [&](const RegistryDelta &D) { return D.counter(Base + ".runs"); }));
    M.add(Base + ".ms", Us / 1e3 / Compiles, "ms");
    M.add(Base + ".runs", Runs / Compiles, "count");
  }
  double Cons = static_cast<double>(Both([](const RegistryDelta &D) {
    return D.counterMatching("pass.analysis.", ".constructions");
  }));
  double Hits = static_cast<double>(Both([](const RegistryDelta &D) {
    return D.counterMatching("pass.analysis.", ".hits");
  }));
  M.add("analysis.constructions", Cons / Compiles, "count");
  M.add("analysis.hit_ratio", Hits / std::max(1.0, Hits + Cons), "ratio");

  // Runtime host time: the runtime's own per-site host-ns histograms,
  // over the closed loop only (the runs the exec spans cover).
  double RtRawMs = static_cast<double>(W.LoopReg.histSumMatching(
                      "runtime.site.", "_host_ns")) /
                  1e6;
  double RtMs = RtRawMs * W.loopFactor();
  double InterpMs = W.Sum.Run - RtMs;
  double Ops = static_cast<double>(W.Ops);
  M.add("exec.load_ms", W.Sum.Load / N, "ms");
  M.add("exec.decode_ms", W.Sum.Decode / N, "ms");
  M.add("exec.interpret_ms", InterpMs / N, "ms");
  M.add("exec.ops", Ops / N, "count");
  M.add("exec.ns_per_op", InterpMs * 1e6 / std::max(1.0, Ops), "ns");
  M.add("exec.kernel_launches", static_cast<double>(W.KernelLaunches) / N,
        "count");
  double Probes = static_cast<double>(W.LoopReg.histCount("runtime.index.probes"));
  double XHits = static_cast<double>(W.LoopReg.counter("runtime.xlat.hits"));
  M.add("runtime.calls", static_cast<double>(W.RuntimeCalls) / N, "count");
  M.add("runtime.host_ms", RtMs / N, "ms");
  M.add("runtime.index.probes_per_lookup",
        static_cast<double>(W.LoopReg.histSum("runtime.index.probes")) /
            std::max(1.0, Probes),
        "count");
  M.add("runtime.xlat.hit_ratio", XHits / std::max(1.0, XHits + Probes),
        "ratio");
  M.add("runtime.epoch_suppressed_copies",
        static_cast<double>(W.EpochSuppressed) / N, "count");

  M.add("gpusim.cpu_cycles", Mod.CpuCycles, "cycles");
  M.add("gpusim.gpu_cycles", Mod.GpuCycles, "cycles");
  M.add("gpusim.comm_cycles", Mod.CommCycles, "cycles");
  M.add("gpusim.runtime_cycles", Mod.RuntimeCycles, "cycles");
  M.add("gpusim.stall_cycles", Mod.StallCycles, "cycles");
  M.add("gpusim.transfers", static_cast<double>(Mod.Transfers), "count");
  M.add("gpusim.dma_batches", static_cast<double>(Mod.DmaBatches), "count");
  M.add("gpusim.coalesced_transfers", static_cast<double>(Mod.Coalesced),
        "count");

  double Evictions = static_cast<double>(W.ReplayReg.counter("server.evictions"));
  double Leases =
      static_cast<double>(W.ReplayReg.counter("server.leases_created"));
  std::vector<double> Wait;
  for (const ServerResponse &R :
       modelAt(Mod.Stream, fixedSpacingCycles(O.Kind)))
    Wait.push_back(R.StartCycles - R.ArrivalCycles);
  M.add("server.replay_ms", W.ReplayMs, "ms");
  M.add("server.evictions", Evictions, "count");
  M.add("server.evicted_bytes",
        static_cast<double>(W.ReplayReg.counter("server.evicted_bytes")),
        "bytes");
  M.add("server.capacity_stalls",
        static_cast<double>(W.ReplayReg.counter("server.capacity_stalls")),
        "count");
  M.add("server.leases_created", Leases, "count");
  M.add("server.eviction_ratio", Evictions / std::max(1.0, Leases), "ratio");
  M.add("server.modeled_queue_wait_cycles.p50", percentile(Wait, 0.5),
        "cycles");

  // Self time per layer from the spans; the runtime's host time is
  // carved out of Machine::run, whose calls into it the harness cannot
  // see.
  // Shares are of the window's host time less the speed probes, which
  // belong to the measurement rather than to the program.
  std::map<Layer, double> Self = Tr.selfMs();
  double HostMs = W.WallRawMs - W.ProbeRawMs;
  double Attributed = 0;
  auto Share = [&](const char *Name, double Ms) {
    Attributed += Ms;
    M.add(std::string("self.") + Name + "_pct", 100.0 * Ms / HostMs, "%");
  };
  Share("frontend", Self[Layer::Frontend]);
  Share("ir", Self[Layer::IR]);
  Share("pass", Self[Layer::Pass]);
  Share("exec", Self[Layer::Exec] - RtRawMs);
  Share("runtime", RtRawMs);
  Share("server", Self[Layer::Server]);
  M.add("self.unattributed_pct", 100.0 * (HostMs - Attributed) / HostMs,
        "%");
  double TracedPps = W.programsPerSecond();
  M.add("trace.programs_per_s", TracedPps, "1/s");
  M.add("trace.overhead_pct", 100.0 * (UntracedPps / TracedPps - 1.0), "%");
  M.add("trace.spans", static_cast<double>(Tr.spans().size()), "count");
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    if (A == "--workload") {
      O.WorkloadName = V;
      if (V == "paper-suite")
        O.Kind = WorkloadKind::PaperSuite;
      else if (V == "fresh-programs")
        O.Kind = WorkloadKind::FreshPrograms;
      else if (V == "server-mix")
        O.Kind = WorkloadKind::ServerMix;
      else
        return false;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), nullptr);
      if (!(O.Seconds > 0 && O.Seconds <= 600))
        return false;
    } else if (A == "--trace") {
      if (V != "0" && V != "1")
        return false;
      O.Trace = V == "1";
    } else if (A == "--trace-out") {
      O.TraceOut = V;
    } else {
      return false;
    }
  }
  return !O.WorkloadName.empty();
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload "
                 "paper-suite|fresh-programs|server-mix --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }

  // Set-up: generated programs, request lists and sequential references,
  // repeated so setup_s is a median.
  std::vector<double> SetupTimes;
  Inputs In;
  SpeedGauge Gauge;
  for (unsigned I = 0; I < SetupRepeats; ++I) {
    Clock::time_point T0 = Clock::now();
    In = setUp(O);
    double Raw = msBetween(T0, Clock::now()) / 1e3;
    SetupTimes.push_back(Raw * Gauge.next());
  }
  double SetupS = median(SetupTimes);
  std::fprintf(stderr, "perfbench: %s seed %llu: set-up %.3f s, %zu programs\n",
               O.WorkloadName.c_str(), static_cast<unsigned long long>(O.Seed),
               SetupS, In.Programs.size());

  Window WarmUp;
  std::vector<ExecStats> Solo = warmUp(O, In, WarmUp);

  // The traced run measures an untraced window first, so its overhead
  // is the traced versus untraced programs_per_s of the same run.
  double UntracedPps = 0;
  if (O.Trace) {
    Tracer Off(false);
    Modeled Unused;
    Window U = measure(O, In, Solo, Off, Unused);
    UntracedPps = U.programsPerSecond();
  }
  Tracer Tr(O.Trace);
  Modeled Mod;
  Clock::time_point Origin = Clock::now();
  Window W = measure(O, In, Solo, Tr, Mod);
  W.Attempted += WarmUp.Attempted;
  W.Failed += WarmUp.Failed;
  W.FailedNames.insert(W.FailedNames.end(), WarmUp.FailedNames.begin(),
                       WarmUp.FailedNames.end());

  for (const std::string &F : W.FailedNames)
    std::fprintf(stderr, "perfbench: FAILED %s\n", F.c_str());
  std::fprintf(stderr,
               "perfbench: %zu programs in %.0f ms (speed factor %.3f), "
               "%zu requests in %.0f ms (speed factor %.3f), "
               "failed_frac %.6g (%zu of %zu)\n",
               W.Programs, W.LoopRawMs, W.loopFactor(), W.Requests,
               W.ReplayRawMs, W.replayFactor(),
               static_cast<double>(W.Failed) /
                   static_cast<double>(std::max<size_t>(1, W.Attempted)),
               W.Failed, W.Attempted);

  std::vector<double> Service;
  for (const ServerResponse &R : Mod.Stream)
    Service.push_back(R.ServiceCycles);
  double MeanService = 0;
  for (double X : Service)
    MeanService += X / static_cast<double>(Service.size());
  std::fprintf(stderr,
               "perfbench: modeled stream of %zu runs: mean service %.6g "
               "cycles (%u lanes saturate at spacing %.6g), p99 service "
               "%.6g cycles\n",
               Service.size(), MeanService, ServerThreads,
               MeanService / ServerThreads, percentile(Service, 0.99));

  MetricSink M;
  if (O.Trace) {
    perLayer(M, O, W, Mod, Tr, UntracedPps);
    if (!O.TraceOut.empty() && !Tr.write(O.TraceOut, Origin)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", O.TraceOut.c_str());
      return 1;
    }
  } else {
    endToEnd(M, O, W, Mod, SetupS);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              W.Failed ? "false" : "true", W.Attempted, W.Failed,
              M.json().c_str());
  return 0;
}
