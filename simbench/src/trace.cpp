#include "trace.hpp"

#include <cstdio>
#include <memory>

namespace simbench {

void Tracer::host_span(const char* cat, const char* name, std::int64_t h0, std::int64_t h1) {
  span(cat, name, kBenchTrack, h0, h1, -1, -1);
}

void Tracer::span(const char* cat, const char* name, int track, std::int64_t h0, std::int64_t h1,
                  sim::Time v0, sim::Time v1) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back(Span{cat, name, track, round_, h0, h1, v0, v1});
}

bool Tracer::write_chrome(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  std::FILE* out = f.get();
  // pid 1 = host clock, pid 2 = modelled clock; tid 0 = benchmark, r+1 = rank r.
  std::fprintf(out,
               "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
               "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{\"name\":\"host\"}},\n"
               "{\"ph\":\"M\",\"pid\":2,\"name\":\"process_name\",\"args\":{\"name\":\"virtual\"}}");
  for (const Span& s : spans_) {
    const int tid = s.track + 1;
    std::fprintf(out,
                 ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"cat\":\"%s\",\"name\":\"%s\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"round\":%d",
                 tid, s.cat, s.name, static_cast<double>(s.h0) / 1e3,
                 static_cast<double>(s.h1 - s.h0) / 1e3, s.round);
    if (s.v0 >= 0) {
      std::fprintf(out, ",\"virt_start_us\":%.6f,\"virt_end_us\":%.6f", sim::to_us(s.v0),
                   sim::to_us(s.v1));
    }
    std::fprintf(out, "}}");
    if (s.v0 >= 0) {
      std::fprintf(out,
                   ",\n{\"ph\":\"X\",\"pid\":2,\"tid\":%d,\"cat\":\"%s\",\"name\":\"%s\","
                   "\"ts\":%.6f,\"dur\":%.6f,\"args\":{\"round\":%d,\"host_ns\":%lld}}",
                   tid, s.cat, s.name, sim::to_us(s.v0), sim::to_us(s.v1 - s.v0),
                   s.round, static_cast<long long>(s.h1 - s.h0));
    }
  }
  std::fprintf(out, "\n]}\n");
  return std::fflush(out) == 0 && !std::ferror(out);
}

}  // namespace simbench
