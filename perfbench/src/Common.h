//===- Common.h - statistics, spans, JSON and failure accounting -----------===//
//
// Part of the DCIR reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small utilities shared by the benchmark driver: a monotonic clock,
/// order statistics, an operation tally that counts failures against
/// attempts, the benchmark's own span recorder (spans are taken around
/// calls into each layer, kept in memory, and written at exit), and a
/// minimal JSON writer.
///
//===----------------------------------------------------------------------===//

#ifndef DCIRBENCH_COMMON_H
#define DCIRBENCH_COMMON_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace bench {

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

//===----------------------------------------------------------------------===//
// Order statistics
//===----------------------------------------------------------------------===//

/// Quantile \p Q of \p V with linear interpolation between order
/// statistics (the "inclusive" method). Sorts \p V. NaN when empty.
template <typename T> double quantile(std::vector<T> &V, double Q) {
  if (V.empty())
    return std::nan("");
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Pos);
  std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - double(Lo);
  return double(V[Lo]) + (double(V[Hi]) - double(V[Lo])) * Frac;
}

template <typename T> double median(std::vector<T> V) {
  return quantile(V, 0.5);
}

/// Geometric mean of the positive finite entries of \p V (NaN if none).
inline double geomean(const std::vector<double> &V) {
  double LogSum = 0.0;
  std::size_t N = 0;
  for (double X : V)
    if (X > 0.0 && std::isfinite(X)) {
      LogSum += std::log(X);
      ++N;
    }
  return N ? std::exp(LogSum / double(N)) : std::nan("");
}

/// A uniform random sample of at most a fixed number of values from a
/// stream (Vitter's algorithm R). Its storage is allocated and touched up
/// front, so the benchmark's own memory does not grow with the number of
/// calls it times (peak_rss_mb would otherwise measure the benchmark).
class Reservoir {
public:
  Reservoir(std::size_t Cap, std::uint64_t Seed)
      : Buf(Cap, 0), State(Seed | 1) {}
  void add(std::uint32_t V) {
    if (N < Buf.size()) {
      Buf[N] = V;
    } else {
      // xorshift64: cheap, and good enough to pick a slot.
      State ^= State << 13;
      State ^= State >> 7;
      State ^= State << 17;
      std::uint64_t J = State % (N + 1);
      if (J < Buf.size())
        Buf[J] = V;
    }
    ++N;
  }
  std::uint64_t count() const { return N; }
  std::size_t held() const { return std::min<std::uint64_t>(N, Buf.size()); }
  const std::uint32_t *data() const { return Buf.data(); }

private:
  std::vector<std::uint32_t> Buf;
  std::uint64_t N = 0;
  std::uint64_t State;
};

//===----------------------------------------------------------------------===//
// Failure accounting
//===----------------------------------------------------------------------===//

/// Counts operations attempted and failed. A failure is never dropped:
/// the first few reasons are echoed to stderr, all are counted.
class Tally {
public:
  void ok(std::uint64_t N = 1) { Attempted += N; }
  void fail(const std::string &Why) {
    ++Attempted;
    failOnly(Why);
  }
  /// Counts a failure of an operation already counted as attempted.
  void failOnly(const std::string &Why) {
    if (++Failed <= 10)
      std::fprintf(stderr, "dcirbench: failed operation: %s\n", Why.c_str());
  }
  std::uint64_t attempted() const { return Attempted; }
  std::uint64_t failed() const { return Failed; }

private:
  std::atomic<std::uint64_t> Attempted{0};
  std::atomic<std::uint64_t> Failed{0};
};

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// The benchmark's span recorder. Each thread appends to its own buffer;
/// a span records its name, start, end, the enclosing span on the same
/// thread (its parent), the operation it belongs to, and a subject key
/// (which program or shape the operation used). Nothing is recorded when
/// the log pointer handed to Span is null, which is how untraced runs
/// measure.
class SpanLog {
public:
  struct Rec {
    const char *Name;
    std::uint64_t Op;
    int Key;
    int Parent; // Index into the same thread's records, -1 at the root.
    std::int64_t Start, End;
  };
  struct Buffer {
    int Tid = 0;
    std::vector<Rec> Recs;
    std::vector<int> Open;
  };

  Buffer &local() {
    thread_local std::map<const SpanLog *, Buffer *> Mine;
    Buffer *&B = Mine[this];
    if (!B) {
      std::lock_guard<std::mutex> Lock(Mu);
      Buffers.push_back(std::make_unique<Buffer>());
      B = Buffers.back().get();
      B->Tid = int(Buffers.size());
      B->Recs.reserve(1 << 12);
    }
    return *B;
  }
  std::uint64_t newOp() { return ++NextOp; }

  /// Self time per record: duration minus the time its children cover.
  struct Summary {
    std::uint64_t Count = 0;
    double TotalNs = 0.0, SelfNs = 0.0;
  };
  /// Per-name totals, and per-(name, key) self-time samples in ns.
  void summarize(std::map<std::string, Summary> &ByName,
                 std::map<std::pair<std::string, int>, std::vector<double>>
                     &SelfByKey) const {
    for (const auto &B : Buffers) {
      std::vector<double> Child(B->Recs.size(), 0.0);
      for (const Rec &R : B->Recs)
        if (R.Parent >= 0)
          Child[R.Parent] += double(R.End - R.Start);
      for (std::size_t I = 0; I < B->Recs.size(); ++I) {
        const Rec &R = B->Recs[I];
        double Dur = double(R.End - R.Start), Self = Dur - Child[I];
        Summary &S = ByName[R.Name];
        ++S.Count;
        S.TotalNs += Dur;
        S.SelfNs += Self;
        SelfByKey[{R.Name, R.Key}].push_back(Self);
      }
    }
  }

  /// Writes every span as a Chrome trace-event ("X" phase) JSON file.
  bool write(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fprintf(F, "{\"traceEvents\":[");
    bool First = true;
    for (const auto &B : Buffers)
      for (std::size_t I = 0; I < B->Recs.size(); ++I) {
        const Rec &R = B->Recs[I];
        std::fprintf(F,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                     "\"key\":%d,\"parent\":%d}}",
                     First ? "" : ",", R.Name, B->Tid, double(R.Start) / 1e3,
                     double(R.End - R.Start) / 1e3,
                     static_cast<unsigned long long>(R.Op), R.Key, R.Parent);
        First = false;
      }
    std::fprintf(F, "\n]}\n");
    return std::fclose(F) == 0;
  }

private:
  std::mutex Mu;
  std::vector<std::unique_ptr<Buffer>> Buffers;
  std::atomic<std::uint64_t> NextOp{0};
};

/// RAII span; a no-op when \p Log is null.
class Span {
public:
  Span(SpanLog *Log, const char *Name, std::uint64_t Op, int Key)
      : B(Log ? &Log->local() : nullptr) {
    if (!B)
      return;
    Idx = int(B->Recs.size());
    int Parent = B->Open.empty() ? -1 : B->Open.back();
    B->Recs.push_back({Name, Op, Key, Parent, nowNs(), 0});
    B->Open.push_back(Idx);
  }
  ~Span() {
    if (!B)
      return;
    B->Recs[Idx].End = nowNs();
    B->Open.pop_back();
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  SpanLog::Buffer *B;
  int Idx = -1;
};

//===----------------------------------------------------------------------===//
// JSON
//===----------------------------------------------------------------------===//

inline std::string jstr(const std::string &S) {
  std::string O = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      O += '\\';
    if (static_cast<unsigned char>(C) < 0x20) {
      O += ' ';
      continue;
    }
    O += C;
  }
  return O + "\"";
}

inline std::string jnum(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// An ordered JSON object under construction.
class JObj {
public:
  JObj &raw(const std::string &K, const std::string &V) {
    Body += (Body.empty() ? "" : ",") + jstr(K) + ":" + V;
    return *this;
  }
  JObj &num(const std::string &K, double V) { return raw(K, jnum(V)); }
  JObj &str(const std::string &K, const std::string &V) {
    return raw(K, jstr(V));
  }
  std::string done() const { return "{" + Body + "}"; }

private:
  std::string Body;
};

} // namespace bench

#endif // DCIRBENCH_COMMON_H
