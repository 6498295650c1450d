#include "sim/trace.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>

#include "util/expect.hpp"
#include "util/json.hpp"

namespace rr::sim {

TraceRecorder::SpanId TraceRecorder::begin(std::string name, std::string track,
                                           TimePoint start) {
  events_.push_back(Event{std::move(name), std::move(track), start.ps(), -1,
                          Kind::kSpan, 0.0});
  return events_.size() - 1;
}

void TraceRecorder::end(SpanId id, TimePoint finish) {
  RR_EXPECTS(id < events_.size());
  Event& ev = events_[id];
  RR_EXPECTS(ev.kind == Kind::kSpan);
  RR_EXPECTS(ev.end_ps == -1);
  RR_EXPECTS(finish.ps() >= ev.start_ps);
  ev.end_ps = finish.ps();
}

void TraceRecorder::instant(std::string name, std::string track, TimePoint at) {
  events_.push_back(Event{std::move(name), std::move(track), at.ps(), at.ps(),
                          Kind::kInstant, 0.0});
}

void TraceRecorder::counter(std::string name, std::string track, TimePoint at,
                            double value) {
  events_.push_back(Event{std::move(name), std::move(track), at.ps(), at.ps(),
                          Kind::kCounter, value, 0});
}

void TraceRecorder::flow(std::string name, std::string from_track,
                         TimePoint t0, std::string to_track, TimePoint t1) {
  RR_EXPECTS(t1 >= t0);
  const std::uint64_t id = ++flows_;
  events_.push_back(Event{name, std::move(from_track), t0.ps(), t0.ps(),
                          Kind::kFlowBegin, 0.0, id});
  events_.push_back(Event{std::move(name), std::move(to_track), t1.ps(),
                          t1.ps(), Kind::kFlowEnd, 0.0, id});
}

void TraceRecorder::set_row(const std::string& track, const std::string& row) {
  const auto it = std::find(rows_.begin(), rows_.end(), row);
  track_rows_[track] = static_cast<std::size_t>(it - rows_.begin());
  if (it == rows_.end()) rows_.push_back(row);
}

std::vector<TraceRecorder::Span> TraceRecorder::take_spans() {
  RR_EXPECTS(open_spans() == 0);
  std::vector<Span> out;
  for (Event& ev : events_)
    if (ev.kind == Kind::kSpan)
      out.push_back({std::move(ev.name), TimePoint::from_ps(ev.start_ps),
                     TimePoint::from_ps(ev.end_ps)});
  events_.clear();
  return out;
}

std::size_t TraceRecorder::open_spans() const {
  std::size_t n = 0;
  for (const Event& ev : events_)
    if (ev.kind == Kind::kSpan && ev.end_ps == -1) ++n;
  return n;
}

std::size_t TraceRecorder::counter_samples() const {
  std::size_t n = 0;
  for (const Event& ev : events_)
    if (ev.kind == Kind::kCounter) ++n;
  return n;
}

double TraceRecorder::last_counter(std::string_view name,
                                   std::string_view track) const {
  for (auto it = events_.rbegin(); it != events_.rend(); ++it)
    if (it->kind == Kind::kCounter && it->name == name && it->track == track)
      return it->value;
  return std::nan("");
}

namespace {

/// Exact decimal microseconds of `ps`; whole microseconds print as
/// integers.
void write_us(std::ostream& os, std::int64_t ps) {
  if (ps < 0) os << '-';
  const std::uint64_t mag = ps < 0 ? 0 - static_cast<std::uint64_t>(ps)
                                   : static_cast<std::uint64_t>(ps);
  os << mag / 1'000'000;
  if (const std::uint64_t frac = mag % 1'000'000) {
    std::string digits = std::to_string(frac + 1'000'000).substr(1);
    os << '.' << digits.erase(digits.find_last_not_of('0') + 1);
  }
}

}  // namespace

void TraceRecorder::write_json(std::ostream& os) const {
  // Tracks map to tid k, and to the pid of their row (rows numbered from
  // 1 in naming order); a track on no row takes the pid after the named
  // rows, pid 1 when there are none.  Names and track labels go through
  // the shared util/json escaper so quotes, backslashes, and control
  // characters yield valid Chrome-trace JSON.
  std::map<std::string, int> track_ids;
  for (const Event& ev : events_)
    track_ids.emplace(ev.track, static_cast<int>(track_ids.size()) + 1);
  const auto pid = [&](const std::string& track) {
    const auto it = track_rows_.find(track);
    return (it == track_rows_.end() ? rows_.size() : it->second) + 1;
  };

  os << "{\"traceEvents\":[";
  const char* sep = "";
  const auto meta = [&](std::size_t p, int tid, const char* what,
                        const std::string& name) {
    os << sep << "{\"ph\":\"M\",\"pid\":" << p << ",\"tid\":" << tid
       << ",\"name\":\"" << what << "\",\"args\":{\"name\":";
    write_json_string(os, name);
    os << "}}";
    sep = ",";
  };
  for (std::size_t r = 0; r < rows_.size(); ++r)
    meta(r + 1, 0, "process_name", rows_[r]);
  for (const auto& [track, tid] : track_ids)
    meta(pid(track), tid, "thread_name", track);

  for (const Event& ev : events_) {
    static constexpr char kPhase[] = {'X', 'i', 'C', 's', 'f'};  // by Kind
    os << ",{\"ph\":\"" << kPhase[static_cast<int>(ev.kind)] << '"';
    // Perfetto binds "s"/"f" pairs by (cat, id); "bp":"e" anchors the
    // arrow head on the enclosing slice's end rather than requiring a
    // following one.
    if (ev.kind == Kind::kFlowBegin || ev.kind == Kind::kFlowEnd)
      os << ",\"cat\":\"frame\",\"id\":" << ev.flow_id
         << (ev.kind == Kind::kFlowEnd ? ",\"bp\":\"e\"" : "");
    os << ",\"pid\":" << pid(ev.track) << ",\"tid\":" << track_ids.at(ev.track)
       << ",\"ts\":";
    write_us(os, ev.start_ps);
    if (ev.kind == Kind::kSpan) {
      os << ",\"dur\":";
      write_us(os, (ev.end_ps == -1 ? ev.start_ps : ev.end_ps) - ev.start_ps);
    } else if (ev.kind == Kind::kInstant) {
      os << ",\"s\":\"t\"";
    }
    os << ",\"name\":";
    write_json_string(os, ev.name);
    if (ev.kind == Kind::kCounter) {
      os << ",\"args\":{";
      write_json_string(os, ev.name);
      // A non-finite sample has no JSON number; null keeps the file valid.
      os << ":" << (std::isfinite(ev.value) ? format_json_number(ev.value)
                                            : "null")
         << "}";
    }
    os << "}";
  }
  os << "]}";
}

}  // namespace rr::sim
