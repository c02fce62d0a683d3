#include "spans.hpp"

#include <cstdio>

namespace gmpbench {

uint32_t Tracer::open(const char* name, uint64_t run) {
  const uint32_t parent = open_.empty() ? kNoParent : open_.back();
  const uint32_t idx = static_cast<uint32_t>(spans_.size());
  spans_.push_back(Span{name, now_ns(), 0, parent, run});
  open_.push_back(idx);
  return idx;
}

void Tracer::close(uint32_t idx) {
  spans_[idx].end_ns = now_ns();
  open_.pop_back();
}

std::map<std::string, uint64_t> Tracer::self_ns() const {
  std::vector<uint64_t> child(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent != kNoParent) child[s.parent] += s.end_ns - s.start_ns;
  std::map<std::string, uint64_t> out;
  for (size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].name] += spans_[i].end_ns - spans_[i].start_ns - child[i];
  return out;
}

bool Tracer::write_chrome_json(const std::string& path, size_t max_spans) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  const size_t n = spans_.size() < max_spans ? spans_.size() : max_spans;
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"run\":%llu,\"span\":%zu,\"parent\":%lld}}\n",
                 i ? "," : "", s.name, static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.run), i,
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent));
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace gmpbench
