//===- Workloads.h - the benchmark's workloads and closed-loop driver ------===//
//
// Part of the DCIR reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A workload is a set of api::Programs compiled at set-up plus, per
/// client thread, a list of calls to make on them in a seeded order.
/// Every call names the buffers it binds, resets its inputs before it
/// runs, and checks its outputs against an oracle that owes nothing to
/// DCIR (reference checksums from the host C compiler, or a plain C++
/// loop). runLoop drives any workload as a closed loop: each client sends
/// its next call only after the previous one returned.
///
//===----------------------------------------------------------------------===//

#ifndef DCIRBENCH_WORKLOADS_H
#define DCIRBENCH_WORKLOADS_H

#include "Common.h"

#include "api/Api.h"
#include "codegen/CppCodegen.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace bench {

/// One compiled program of a workload.
struct Served {
  std::string Name; // Row name: the kernel, or the serving entry.
  std::string Source, Entry;
  dcir::pipeline::CompileOptions Opts;
  std::shared_ptr<const dcir::api::Program> Prog;
};

/// One call a client makes.
struct CallSpec {
  int Key = 0;  // Sample bucket (one row of the report).
  int Prog = 0; // Index into Workload::Programs.
  std::vector<std::pair<std::string, dcir::exec::BufferView>> Views;
  std::map<std::string, std::int64_t> Symbols;
  /// Restores the inputs the call overwrites (may be empty).
  std::function<void()> Reset;
  /// Empty when the outputs are right, else what is wrong.
  std::function<std::string(const dcir::api::InvocationResult &)> Check;
};

/// Expected Polybench checksum and the sizes it was computed at.
struct Reference {
  double Checksum = 0.0;
  std::map<std::string, long long> Defines;
};

/// Threads compiling programs at set-up, and host-compiling artifacts
/// in the traced run. Three leave one core of a 4-core host free.
constexpr int CompileThreads = 3;

class Workload {
public:
  virtual ~Workload() = default;

  std::string Name;
  /// Each call creates a fresh Invocation and binds inside the timed
  /// region (otherwise each client prebinds one Invocation per call).
  bool BindPerCall = false;
  /// Length of the windows the timed loop is cut into (see main.cpp for
  /// how the end-to-end metrics use them); 0 takes the whole loop as one
  /// window.
  double WindowSeconds = 1.0;
  std::vector<Served> Programs;
  /// Row names of the sample buckets (CallSpec::Key).
  std::vector<std::string> Keys;

  /// Work done after every program compiled (serve-shapes builds its
  /// specialized variants here). Returns the artifacts it built.
  virtual unsigned prepare(Tally &) { return 0; }
  /// The calls client \p Client makes, in order; the loop cycles them.
  virtual std::vector<CallSpec> calls(int Client) const = 0;
};

/// Creates workload \p Name, or null when the name is unknown. \p Kernels
/// (comma-separated Polybench names, empty = all) and \p Refs apply to the
/// polybench workloads only.
std::unique_ptr<Workload>
makeWorkload(const std::string &Name, std::uint64_t Seed,
             const std::string &Kernels,
             const std::map<std::string, Reference> &Refs, std::string &Err);

/// Compiles every program of \p W on CompileThreads threads. A null
/// program or a failed native preparation is a failed operation.
void compileAll(Workload &W, Tally &T, SpanLog *L);

/// The codegen options the native engine derives for \p P (the same
/// derivation NativeJitEngine::buildArtifact applies to a Program's
/// configuration), so a graph emitted with them hashes to the artifact
/// the Program serves.
dcir::codegen::CodegenOptions codegenOptionsFor(const Served &S);

struct LoopResult {
  /// Per key: latencies in ns of successful calls, a uniform sample of at
  /// most 2^16 per client and window (see Reservoir), pooled in
  /// proportion to call counts.
  std::vector<std::vector<std::uint32_t>> Ns;
  std::vector<std::uint64_t> KeyCalls; // Per key, successful calls.
  /// The same per full window of Workload::WindowSeconds (one window
  /// spanning the whole loop when the workload has no window length or
  /// the loop runs a number of rounds), with its rate of successful calls.
  struct Window {
    std::vector<std::vector<std::uint32_t>> Ns;
    double Rate = 0.0;
  };
  std::vector<Window> Windows;
  double Seconds = 0.0;
  std::uint64_t Calls = 0; // Successful calls.
};

/// Runs \p W as a closed loop with \p Clients threads for \p Seconds, or,
/// when \p Rounds > 0, for exactly that many passes over each client's
/// calls. With \p L non-null every call records spans. \p CallThreads > 0
/// runs every call on that many OpenMP threads instead of the program's
/// own count.
LoopResult runLoop(const Workload &W, int Clients, double Seconds,
                   int Rounds, SpanLog *L, Tally &T, int CallThreads = 0);

} // namespace bench

#endif // DCIRBENCH_WORKLOADS_H
