//===- perfbench/Spans.h - In-memory spans around calls into the verifier -===//
///
/// \file
/// The benchmark's traced mode records one span per call it makes into a
/// layer of the verifier: a name, a start and end on the steady clock, the
/// span that caused it, and the instance id every span of one verification
/// shares. Spans stay in memory and are written out once, when the run
/// ends. A span's self time is its duration minus the time its children
/// cover; the benchmark is single-threaded between calls, so children never
/// overlap.
///
/// Timing never depends on the recorder: timed() measures every call with
/// the steady clock and only additionally records a span when recording is
/// on, so traced and untraced passes run the same code apart from the
/// recording itself.
///
//===----------------------------------------------------------------------===//

#ifndef SEQVER_PERFBENCH_SPANS_H
#define SEQVER_PERFBENCH_SPANS_H

#include "support/Statistics.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

class SpanRecorder {
public:
  /// Id 0 is "no span": the root's parent, and what open() returns while
  /// recording is off.
  static constexpr uint32_t None = 0;

  void setRecording(bool On) { Recording = On; }

  uint32_t open(const char *Name, uint32_t Parent, uint32_t Instance) {
    if (!Recording)
      return None;
    Spans.push_back({Name, Parent, Instance, Clock::now(), {}, {}});
    return static_cast<uint32_t>(Spans.size());
  }
  void close(uint32_t Id) {
    if (Id != None)
      Spans[Id - 1].End = Clock::now();
  }
  void attach(uint32_t Id, const seqver::Statistics &S) {
    if (Id != None)
      Spans[Id - 1].Counters = S.all();
  }

  size_t size() const { return Spans.size(); }

  /// Self seconds summed per span name.
  std::map<std::string, double> selfSecondsByName() const {
    std::vector<double> Self = selfSeconds();
    std::map<std::string, double> Out;
    for (size_t I = 0; I < Spans.size(); ++I)
      Out[Spans[I].Name] += Self[I];
    return Out;
  }

  /// Writes every span as one JSON document.
  bool write(const std::string &Path, const std::string &Header) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::vector<double> Self = selfSeconds();
    Clock::time_point Origin =
        Spans.empty() ? Clock::time_point{} : Spans.front().Start;
    std::fprintf(F, "{%s,\n\"spans\": [\n", Header.c_str());
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "{\"id\": %zu, \"parent\": %u, \"instance\": %u, "
                   "\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                   "\"self_s\": %.9f",
                   I + 1, S.Parent, S.Instance, S.Name,
                   secondsBetween(Origin, S.Start),
                   secondsBetween(Origin, S.End), Self[I]);
      if (!S.Counters.empty()) {
        std::fprintf(F, ", \"counters\": {");
        const char *Sep = "";
        for (const auto &[Name, Value] : S.Counters) {
          std::fprintf(F, "%s\"%s\": %lld", Sep, Name.c_str(),
                       static_cast<long long>(Value));
          Sep = ", ";
        }
        std::fprintf(F, "}");
      }
      std::fprintf(F, "}%s\n", I + 1 < Spans.size() ? "," : "");
    }
    std::fprintf(F, "]}\n");
    return std::fclose(F) == 0;
  }

private:
  struct Span {
    const char *Name;
    uint32_t Parent;
    uint32_t Instance;
    Clock::time_point Start;
    Clock::time_point End;
    std::map<std::string, int64_t> Counters;
  };

  std::vector<double> selfSeconds() const {
    std::vector<double> Self(Spans.size());
    for (size_t I = 0; I < Spans.size(); ++I)
      Self[I] = secondsBetween(Spans[I].Start, Spans[I].End);
    for (const Span &S : Spans)
      if (S.Parent != None)
        Self[S.Parent - 1] -= secondsBetween(S.Start, S.End);
    return Self;
  }

  bool Recording = false;
  std::vector<Span> Spans;
};

/// Runs F, timing it with the steady clock and, when recording, inside a
/// span. Returns the seconds F took and the span id (None when off).
template <typename Fn>
std::pair<double, uint32_t> timed(SpanRecorder &Rec, const char *Name,
                                  uint32_t Parent, uint32_t Instance,
                                  Fn &&F) {
  uint32_t Id = Rec.open(Name, Parent, Instance);
  Clock::time_point T0 = Clock::now();
  F();
  double Seconds = secondsBetween(T0, Clock::now());
  Rec.close(Id);
  return {Seconds, Id};
}

} // namespace perfbench

#endif // SEQVER_PERFBENCH_SPANS_H
