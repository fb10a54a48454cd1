#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

thread_local std::vector<std::int32_t> open_stack;

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder& SpanRecorder::global() {
  static SpanRecorder recorder;
  return recorder;
}

std::int32_t SpanRecorder::current() {
  return open_stack.empty() ? -1 : open_stack.back();
}

std::int32_t SpanRecorder::open(const char* name, std::int32_t parent) {
  Span s;
  s.name = name;
  s.parent = parent == -2 ? current() : parent;
  s.start_ns = now_ns();
  std::int32_t id;
  {
    const std::scoped_lock lock(mu_);
    id = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(std::move(s));
  }
  open_stack.push_back(id);
  return id;
}

void SpanRecorder::close(std::int32_t id) {
  const std::int64_t end = now_ns();
  {
    const std::scoped_lock lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = end;
  }
  if (!open_stack.empty() && open_stack.back() == id) open_stack.pop_back();
}

std::vector<Span> SpanRecorder::spans() const {
  const std::scoped_lock lock(mu_);
  return spans_;
}

void SpanRecorder::clear() {
  const std::scoped_lock lock(mu_);
  spans_.clear();
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans()) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"parent\": %d}\n",
                 s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent);
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name, std::int32_t parent) {
  SpanRecorder& rec = SpanRecorder::global();
  if (rec.enabled()) id_ = rec.open(name, parent);
}

ScopedSpan::~ScopedSpan() {
  if (id_ >= 0) SpanRecorder::global().close(id_);
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t b = std::max(s.start_ns, p.start_ns);
    const std::int64_t e = std::min(s.end_ns, p.end_ns);
    if (b < e) children[static_cast<std::size_t>(s.parent)].emplace_back(b, e);
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_b = 0;
    std::int64_t run_e = 0;
    bool open = false;
    for (const auto& [b, e] : iv) {
      if (open && b <= run_e) {
        run_e = std::max(run_e, e);
        continue;
      }
      if (open) covered += run_e - run_b;
      run_b = b;
      run_e = e;
      open = true;
    }
    if (open) covered += run_e - run_b;
    self[i] = seconds_between(spans[i].start_ns, spans[i].end_ns - covered);
  }
  return self;
}

std::map<std::string, NameTotals> totals_by_name(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_seconds(spans);
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    NameTotals& t = out[spans[i].name];
    t.total_s += seconds_between(spans[i].start_ns, spans[i].end_ns);
    t.self_s += self[i];
    ++t.count;
  }
  return out;
}

}  // namespace perfbench
