#include "spans.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

int Recorder::open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.start_s = std::chrono::duration<double>(clock::now() - origin_).count();
  s.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Recorder::close(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("perfbench::Recorder: spans closed out of order");
  }
  open_.pop_back();
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_s = std::chrono::duration<double>(clock::now() - origin_).count();
  if (s.parent >= 0) spans_[static_cast<std::size_t>(s.parent)].child_s += s.end_s - s.start_s;
}

std::map<std::string, SpanTotals> Recorder::totals() const {
  std::map<std::string, SpanTotals> out;
  for (const Span& s : spans_) {
    SpanTotals& t = out[s.name];
    const double dur = s.end_s - s.start_s;
    t.calls++;
    t.total_s += dur;
    t.self_s += dur - s.child_s;
  }
  return out;
}

void Recorder::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("perfbench: cannot write " + path);
  for (const Span& s : spans_) {
    std::fprintf(f, "{\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,\"parent\":%d}\n",
                 s.name.c_str(), s.start_s, s.end_s, s.parent);
  }
  if (std::fclose(f) != 0) throw std::runtime_error("perfbench: cannot write " + path);
}

}  // namespace perfbench
