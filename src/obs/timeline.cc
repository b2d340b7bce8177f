#include "obs/timeline.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "core/error.h"
#include "core/hash.h"
#include "core/logging.h"

namespace sisyphus::obs {

namespace internal {
bool g_timeline_enabled = false;
}  // namespace internal

namespace {

std::uint64_t ZigZag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t UnZigZag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

void AppendVarint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

bool ReadVarint(std::string_view data, std::size_t& pos,
                std::uint64_t* out) {
  std::uint64_t v = 0;
  int shift = 0;
  while (pos < data.size() && shift < 64) {
    const std::uint8_t byte = static_cast<std::uint8_t>(data[pos++]);
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = v;
      return true;
    }
    shift += 7;
  }
  return false;
}

constexpr std::uint64_t Kind(TimelineSectionKind kind) {
  return static_cast<std::uint64_t>(kind);
}

void AppendRawDouble(std::string& out, double v) {
  core::binio::AppendLittleEndian(out, std::bit_cast<std::uint64_t>(v), 8);
}

}  // namespace

std::uint64_t LevelShiftConfig::Fingerprint() const {
  char text[160];
  std::snprintf(text, sizeof(text),
                "cusum alpha=%.6f drift=%.6f threshold=%.6f min_samples=%llu",
                ewma_alpha, drift, threshold,
                static_cast<unsigned long long>(min_samples));
  return core::Fnv1a64(text);
}

std::uint64_t ChurnConfig::Fingerprint() const {
  char text[64];
  std::snprintf(text, sizeof(text), "churn min_delta=%llu",
                static_cast<unsigned long long>(min_delta));
  return core::Fnv1a64(text);
}

// ---------------------------------------------------------------------------
// Timeline

Timeline& Timeline::Global() {
  static Timeline timeline;
  return timeline;
}

void Timeline::Enable(bool on) { internal::g_timeline_enabled = on; }

void Timeline::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  series_.clear();
  by_name_.clear();
  inflight_.clear();
  inflight_step_ = 0;
  events_.clear();
  committed_step_ = 0;
  first_step_ = 0;
  step_offset_ = 0;
}

std::uint32_t Timeline::DeclareLocked(std::string_view name, SeriesKind kind,
                                      DetectorKind detector,
                                      const LevelShiftConfig* shift,
                                      const ChurnConfig* churn) {
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) return it->second;
  Series series;
  series.name = std::string(name);
  series.kind = kind;
  series.detector = detector;
  if (detector == DetectorKind::kLevelShift && shift != nullptr) {
    series.shift = *shift;
    series.fingerprint = series.shift.Fingerprint();
  } else if (detector == DetectorKind::kChurn && churn != nullptr) {
    series.churn = *churn;
    series.fingerprint = series.churn.Fingerprint();
  }
  const auto id = static_cast<std::uint32_t>(series_.size());
  by_name_.emplace(series.name, id);
  series_.push_back(std::move(series));
  return id;
}

std::uint32_t Timeline::DeclareCounter(std::string_view name,
                                       const ChurnConfig* churn) {
  std::lock_guard<std::mutex> lock(mu_);
  return DeclareLocked(name, SeriesKind::kCounter,
                       churn != nullptr ? DetectorKind::kChurn
                                        : DetectorKind::kNone,
                       nullptr, churn);
}

std::uint32_t Timeline::DeclareGauge(std::string_view name,
                                     const LevelShiftConfig* shift) {
  std::lock_guard<std::mutex> lock(mu_);
  return DeclareLocked(name, SeriesKind::kGauge,
                       shift != nullptr ? DetectorKind::kLevelShift
                                        : DetectorKind::kNone,
                       shift, nullptr);
}

std::uint32_t Timeline::DeclareRunningMean(std::string_view name,
                                           const LevelShiftConfig* shift) {
  std::lock_guard<std::mutex> lock(mu_);
  return DeclareLocked(name, SeriesKind::kRunningMean,
                       shift != nullptr ? DetectorKind::kLevelShift
                                        : DetectorKind::kNone,
                       shift, nullptr);
}

bool Timeline::OpenStepLocked(std::uint64_t step) {
  std::uint64_t abs = step + step_offset_;
  if (abs <= committed_step_ && inflight_step_ == 0) {
    // A step at or below the last commit with nothing in flight means a
    // new campaign started in this process: offset it to stay monotone.
    step_offset_ = committed_step_ - step + 1;
    abs = step + step_offset_;
  }
  if (abs <= committed_step_) return false;
  SISYPHUS_REQUIRE(inflight_step_ == 0 || abs == inflight_step_,
                   "Timeline: a sample for a later step before CommitStep");
  SISYPHUS_REQUIRE(committed_step_ == 0 || abs == committed_step_ + 1,
                   "Timeline: non-contiguous step commit");
  inflight_step_ = abs;
  return true;
}

void Timeline::SampleLocked(std::uint64_t step, std::uint32_t series,
                            SampleValue value) {
  if (!OpenStepLocked(step) || series >= series_.size()) return;
  inflight_[series] = value;
}

void Timeline::SampleCounter(std::uint64_t step, std::uint32_t series,
                             std::uint64_t value) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  SampleLocked(step, series, SampleValue{value, 0.0});
}

void Timeline::SampleGauge(std::uint64_t step, std::uint32_t series,
                           double value) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  SampleLocked(step, series, SampleValue{0, value});
}

void Timeline::SampleRunningMean(std::uint64_t step, std::uint32_t series,
                                 std::uint64_t count, double sum) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  SampleLocked(step, series, SampleValue{count, sum});
}

void Timeline::RunLevelShiftLocked(std::uint64_t abs_step, std::uint32_t id,
                                   Series& series, double x) {
  const LevelShiftConfig& config = series.shift;
  if (!series.det_armed) {
    series.det_armed = true;
    series.det_mu = x;
    series.det_n = 1;
    series.det_s_pos = 0.0;
    series.det_s_neg = 0.0;
    return;
  }
  if (series.det_n >= config.min_samples) {
    series.det_s_pos =
        std::max(0.0, series.det_s_pos + (x - series.det_mu) - config.drift);
    series.det_s_neg =
        std::max(0.0, series.det_s_neg + (series.det_mu - x) - config.drift);
    if (series.det_s_pos > config.threshold ||
        series.det_s_neg > config.threshold) {
      DetectionEvent event;
      event.step = abs_step;
      event.series = id;
      event.direction = series.det_s_pos > config.threshold ? 1 : -1;
      event.magnitude = std::abs(x - series.det_mu);
      event.fingerprint = series.fingerprint;
      events_.push_back(event);
      // Re-center on the new level and restart accumulation.
      series.det_mu = x;
      series.det_n = 1;
      series.det_s_pos = 0.0;
      series.det_s_neg = 0.0;
      return;
    }
  }
  series.det_mu += config.ewma_alpha * (x - series.det_mu);
  ++series.det_n;
}

void Timeline::CommitStep(std::uint64_t step) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (!OpenStepLocked(step)) return;
  const std::uint64_t abs_step = inflight_step_;
  // inflight_ is an ordered map, so detector evaluation (and therefore
  // event order within the step) is by ascending series id.
  for (const auto& [id, sample] : inflight_) {
    Series& series = series_[id];
    if (series.first_step == 0) series.first_step = abs_step;
    switch (series.kind) {
      case SeriesKind::kCounter: {
        const std::uint64_t value = sample.u;
        AppendVarint(series.data,
                     ZigZag(static_cast<std::int64_t>(value) -
                            static_cast<std::int64_t>(series.last_counter)));
        series.last_counter = value;
        ++series.sample_count;
        if (series.detector == DetectorKind::kChurn) {
          const std::uint64_t delta =
              value >= series.prev_value ? value - series.prev_value : 0;
          if (delta >= series.churn.min_delta) {
            DetectionEvent event;
            event.step = abs_step;
            event.series = id;
            event.direction = 1;
            event.magnitude = static_cast<double>(delta);
            event.fingerprint = series.fingerprint;
            events_.push_back(event);
          }
          series.prev_value = value;
        }
        break;
      }
      case SeriesKind::kGauge: {
        AppendRawDouble(series.data, sample.d);
        series.last_gauge = sample.d;
        ++series.sample_count;
        if (series.detector == DetectorKind::kLevelShift) {
          RunLevelShiftLocked(abs_step, id, series, sample.d);
        }
        break;
      }
      case SeriesKind::kRunningMean: {
        const std::uint64_t count = sample.u;
        const double sum = sample.d;
        const double mean =
            count > 0 ? sum / static_cast<double>(count) : 0.0;
        AppendRawDouble(series.data, mean);
        series.last_gauge = mean;
        ++series.sample_count;
        if (series.detector == DetectorKind::kLevelShift &&
            count > series.prev_count) {
          const double increment =
              (sum - series.prev_sum) /
              static_cast<double>(count - series.prev_count);
          RunLevelShiftLocked(abs_step, id, series, increment);
        }
        series.prev_count = count;
        series.prev_sum = sum;
        break;
      }
    }
  }
  // Dense fill: a declared series with no sample this step repeats its
  // last value (counters: zero delta) so step attribution stays implicit
  // (first_step + index) for every series.
  for (std::size_t id = 0; id < series_.size(); ++id) {
    Series& series = series_[id];
    if (series.first_step == 0) continue;
    if (inflight_.count(static_cast<std::uint32_t>(id)) != 0) continue;
    if (series.kind == SeriesKind::kCounter) {
      AppendVarint(series.data, ZigZag(0));
    } else {
      AppendRawDouble(series.data, series.last_gauge);
    }
    ++series.sample_count;
  }
  if (first_step_ == 0) first_step_ = abs_step;
  committed_step_ = abs_step;
  inflight_.clear();
  inflight_step_ = 0;
}

Timeline::Summary Timeline::GetSummary() const {
  std::lock_guard<std::mutex> lock(mu_);
  Summary summary;
  summary.steps =
      committed_step_ == 0 ? 0 : committed_step_ - first_step_ + 1;
  summary.first_step = first_step_;
  summary.last_step = committed_step_;
  summary.series = series_.size();
  for (const Series& series : series_) {
    summary.samples += series.sample_count;
  }
  summary.events = events_.size();
  for (const DetectionEvent& event : events_) {
    const Series& series = series_[event.series];
    if (series.detector == DetectorKind::kLevelShift) {
      ++summary.level_shift_events;
    } else if (series.detector == DetectorKind::kChurn) {
      ++summary.churn_events;
    }
  }
  return summary;
}

std::vector<DetectionEvent> Timeline::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::string Timeline::BuildArtifact() const {
  std::lock_guard<std::mutex> lock(mu_);
  core::sectioned::Writer file(kTimelineFormat);
  const auto add_section = [&](TimelineSectionKind kind, std::uint64_t run,
                               std::string_view payload) {
    file.Add(Kind(kind), run, payload);
  };

  {
    core::binio::Writer meta;
    meta.PutString(kTimelineSchema);
    meta.PutU64(committed_step_ == 0 ? 0
                                     : committed_step_ - first_step_ + 1);
    meta.PutU64(first_step_);
    meta.PutU64(committed_step_);
    meta.PutU64(series_.size());
    meta.PutU64(events_.size());
    for (const Series& series : series_) {
      meta.PutString(series.name);
      meta.PutU8(static_cast<std::uint8_t>(series.kind));
      meta.PutU8(static_cast<std::uint8_t>(series.detector));
      meta.PutU64(series.fingerprint);
      meta.PutU64(series.first_step);
      meta.PutU64(series.sample_count);
      if (series.detector == DetectorKind::kLevelShift) {
        meta.PutDouble(series.shift.ewma_alpha);
        meta.PutDouble(series.shift.drift);
        meta.PutDouble(series.shift.threshold);
        meta.PutU64(series.shift.min_samples);
      } else if (series.detector == DetectorKind::kChurn) {
        meta.PutU64(series.churn.min_delta);
      }
    }
    add_section(TimelineSectionKind::kMeta, kTimelineGlobalRun,
                std::move(meta).Take());
  }
  for (std::size_t id = 0; id < series_.size(); ++id) {
    add_section(TimelineSectionKind::kSeries, id, series_[id].data);
  }
  {
    core::binio::Writer events;
    events.PutU64(events_.size());
    for (const DetectionEvent& event : events_) {
      events.PutU64(event.step);
      events.PutU32(event.series);
      events.PutI64(event.direction);
      events.PutDouble(event.magnitude);
      events.PutU64(event.fingerprint);
    }
    add_section(TimelineSectionKind::kEvents, kTimelineGlobalRun,
                std::move(events).Take());
  }

  return std::move(file).Finish();
}

void Timeline::Save(core::binio::Writer& w) const {
  std::lock_guard<std::mutex> lock(mu_);
  SISYPHUS_REQUIRE(inflight_step_ == 0,
                   "Timeline::Save: partial step in flight at snapshot");
  w.PutU64(committed_step_);
  w.PutU64(first_step_);
  w.PutU64(step_offset_);
  w.PutU64(series_.size());
  for (const Series& series : series_) {
    w.PutString(series.name);
    w.PutU8(static_cast<std::uint8_t>(series.kind));
    w.PutU8(static_cast<std::uint8_t>(series.detector));
    w.PutDouble(series.shift.ewma_alpha);
    w.PutDouble(series.shift.drift);
    w.PutDouble(series.shift.threshold);
    w.PutU64(series.shift.min_samples);
    w.PutU64(series.churn.min_delta);
    w.PutU64(series.fingerprint);
    w.PutU64(series.first_step);
    w.PutU64(series.sample_count);
    w.PutString(series.data);
    w.PutU64(series.last_counter);
    w.PutDouble(series.last_gauge);
    w.PutU64(series.prev_count);
    w.PutDouble(series.prev_sum);
    w.PutBool(series.det_armed);
    w.PutDouble(series.det_mu);
    w.PutDouble(series.det_s_pos);
    w.PutDouble(series.det_s_neg);
    w.PutU64(series.det_n);
    w.PutU64(series.prev_value);
  }
  w.PutU64(events_.size());
  for (const DetectionEvent& event : events_) {
    w.PutU64(event.step);
    w.PutU32(event.series);
    w.PutI64(event.direction);
    w.PutDouble(event.magnitude);
    w.PutU64(event.fingerprint);
  }
}

bool Timeline::Load(core::binio::Reader& r) {
  std::lock_guard<std::mutex> lock(mu_);
  series_.clear();
  by_name_.clear();
  inflight_.clear();
  inflight_step_ = 0;
  events_.clear();
  committed_step_ = r.GetU64();
  first_step_ = r.GetU64();
  step_offset_ = r.GetU64();
  const std::uint64_t series_count = r.GetU64();
  for (std::uint64_t i = 0; i < series_count && r.ok(); ++i) {
    Series series;
    series.name = r.GetString();
    series.kind = static_cast<SeriesKind>(r.GetU8());
    series.detector = static_cast<DetectorKind>(r.GetU8());
    series.shift.ewma_alpha = r.GetDouble();
    series.shift.drift = r.GetDouble();
    series.shift.threshold = r.GetDouble();
    series.shift.min_samples = r.GetU64();
    series.churn.min_delta = r.GetU64();
    series.fingerprint = r.GetU64();
    series.first_step = r.GetU64();
    series.sample_count = r.GetU64();
    series.data = r.GetString();
    series.last_counter = r.GetU64();
    series.last_gauge = r.GetDouble();
    series.prev_count = r.GetU64();
    series.prev_sum = r.GetDouble();
    series.det_armed = r.GetBool();
    series.det_mu = r.GetDouble();
    series.det_s_pos = r.GetDouble();
    series.det_s_neg = r.GetDouble();
    series.det_n = r.GetU64();
    series.prev_value = r.GetU64();
    if (!r.ok()) return false;
    by_name_.emplace(series.name, static_cast<std::uint32_t>(series_.size()));
    series_.push_back(std::move(series));
  }
  const std::uint64_t event_count = r.GetU64();
  if (!r.ok() || event_count > r.remaining() / 36) return false;
  events_.reserve(event_count);
  for (std::uint64_t i = 0; i < event_count && r.ok(); ++i) {
    DetectionEvent event;
    event.step = r.GetU64();
    event.series = r.GetU32();
    event.direction = static_cast<std::int32_t>(r.GetI64());
    event.magnitude = r.GetDouble();
    event.fingerprint = r.GetU64();
    events_.push_back(event);
  }
  return r.ok();
}

// ---------------------------------------------------------------------------
// TimelineReader

bool TimelineReader::Parse(std::string bytes, std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };
  bytes_ = std::move(bytes);
  core::sectioned::Reader file;
  if (const core::Status status = file.Open(bytes_, kTimelineFormat);
      !status.ok()) {
    return fail(status.error().message());
  }
  if (const core::Status status = file.VerifyAll(); !status.ok()) {
    return fail(status.error().message());
  }
  const auto meta_section =
      file.Find(Kind(TimelineSectionKind::kMeta), kTimelineGlobalRun);
  if (!meta_section.ok()) return fail("missing meta section");
  const auto events_section =
      file.Find(Kind(TimelineSectionKind::kEvents), kTimelineGlobalRun);
  if (!events_section.ok()) return fail("missing events section");

  core::binio::Reader meta(meta_section.value());
  const std::string schema = meta.GetString();
  if (schema != kTimelineSchema) return fail("bad schema '" + schema + "'");
  steps_ = meta.GetU64();
  first_step_ = meta.GetU64();
  last_step_ = meta.GetU64();
  const std::uint64_t series_count = meta.GetU64();
  const std::uint64_t event_count = meta.GetU64();
  if (!meta.ok()) return fail("meta section truncated");
  if (steps_ != (last_step_ == 0 ? 0 : last_step_ - first_step_ + 1)) {
    return fail("meta step range inconsistent with step count");
  }
  series_.clear();
  for (std::uint64_t i = 0; i < series_count; ++i) {
    TimelineSeriesView view;
    view.id = static_cast<std::uint32_t>(i);
    view.name = meta.GetString();
    view.kind = static_cast<SeriesKind>(meta.GetU8());
    view.detector = static_cast<DetectorKind>(meta.GetU8());
    view.fingerprint = meta.GetU64();
    view.first_step = meta.GetU64();
    view.sample_count = meta.GetU64();
    if (view.detector == DetectorKind::kLevelShift) {
      view.shift.ewma_alpha = meta.GetDouble();
      view.shift.drift = meta.GetDouble();
      view.shift.threshold = meta.GetDouble();
      view.shift.min_samples = meta.GetU64();
    } else if (view.detector == DetectorKind::kChurn) {
      view.churn.min_delta = meta.GetU64();
    }
    if (!meta.ok()) return fail("meta series table truncated");
    // Sampled series must be dense through the last committed step.
    if (view.first_step != 0 &&
        view.first_step + view.sample_count - 1 != last_step_) {
      return fail("series '" + view.name + "' is not dense to the last step");
    }
    series_.push_back(std::move(view));
  }
  series_payload_.assign(series_.size(), {0, 0});
  std::vector<bool> seen(series_.size(), false);
  std::size_t series_sections = 0;
  for (const core::sectioned::Section& section : file.sections()) {
    if (section.kind != Kind(TimelineSectionKind::kSeries)) {
      continue;  // meta, events, and unknown kinds (forward compatibility)
    }
    ++series_sections;
    if (section.run >= series_.size() || seen[section.run]) {
      return fail("series section run id invalid or duplicated");
    }
    seen[section.run] = true;
    series_payload_[section.run] = {section.offset, section.size};
    // Every counter delta takes at least one byte and every double eight,
    // so the payload bounds the sample count before anything trusts it.
    const TimelineSeriesView& view = series_[section.run];
    const bool sized = view.kind == SeriesKind::kCounter
                           ? view.sample_count <= section.size
                           : section.size % 8 == 0 &&
                                 section.size / 8 == view.sample_count;
    if (!sized) {
      return fail("series '" + view.name +
                  "' payload size disagrees with its sample count");
    }
  }
  if (series_sections != series_.size()) {
    return fail("series section count disagrees with meta");
  }

  core::binio::Reader ev(events_section.value());
  const std::uint64_t declared_events = ev.GetU64();
  if (!ev.ok() || declared_events != event_count) {
    return fail("events section count disagrees with meta");
  }
  events_.clear();
  std::uint64_t prev_step = 0;
  for (std::uint64_t i = 0; i < declared_events; ++i) {
    DetectionEvent event;
    event.step = ev.GetU64();
    event.series = ev.GetU32();
    event.direction = static_cast<std::int32_t>(ev.GetI64());
    event.magnitude = ev.GetDouble();
    event.fingerprint = ev.GetU64();
    if (!ev.ok()) return fail("events section truncated");
    if (event.step < prev_step) return fail("events not step-ordered");
    prev_step = event.step;
    if (event.series >= series_.size()) {
      return fail("event references unknown series " +
                  std::to_string(event.series));
    }
    const TimelineSeriesView& owner = series_[event.series];
    if (event.fingerprint != owner.fingerprint) {
      return fail("event fingerprint disagrees with series '" + owner.name +
                  "'");
    }
    if (event.step < owner.first_step || event.step > last_step_) {
      return fail("event step outside series '" + owner.name + "' range");
    }
    events_.push_back(event);
  }
  if (ev.remaining() != 0) return fail("trailing bytes in events section");
  return true;
}

bool TimelineReader::OpenFile(const std::string& path, std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::string bytes;
  char buffer[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    bytes.append(buffer, n);
  }
  const bool read_ok = std::ferror(file) == 0;
  std::fclose(file);
  if (!read_ok) {
    if (error != nullptr) *error = "read error on " + path;
    return false;
  }
  return Parse(std::move(bytes), error);
}

const TimelineSeriesView* TimelineReader::FindSeries(
    std::string_view name) const {
  for (const TimelineSeriesView& view : series_) {
    if (view.name == name) return &view;
  }
  return nullptr;
}

bool TimelineReader::SeriesValues(std::uint32_t id, std::vector<double>* out,
                                  std::string* error) const {
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };
  if (id >= series_.size()) return fail("no series " + std::to_string(id));
  const TimelineSeriesView& view = series_[id];
  const auto [offset, size] = series_payload_[id];
  const std::string_view data = std::string_view(bytes_).substr(offset, size);
  out->clear();
  out->reserve(view.sample_count);  // bounded by the payload size in Parse
  if (view.kind == SeriesKind::kCounter) {
    std::size_t pos = 0;
    std::int64_t value = 0;
    for (std::uint64_t i = 0; i < view.sample_count; ++i) {
      std::uint64_t raw = 0;
      if (!ReadVarint(data, pos, &raw)) {
        return fail("series '" + view.name + "' delta stream truncated");
      }
      // Wrapping add: a forged delta stream must not overflow a signed sum.
      value = static_cast<std::int64_t>(static_cast<std::uint64_t>(value) +
                                        static_cast<std::uint64_t>(
                                            UnZigZag(raw)));
      out->push_back(static_cast<double>(value));
    }
    if (pos != data.size()) {
      return fail("series '" + view.name + "' has trailing bytes");
    }
  } else {
    core::binio::Reader r(data);
    for (std::uint64_t i = 0; i < view.sample_count; ++i) {
      out->push_back(r.GetDouble());
    }
  }
  return true;
}

bool TimelineReader::ValuesAt(
    std::uint64_t step, std::vector<std::pair<std::uint32_t, double>>* out,
    std::string* error) const {
  out->clear();
  for (const TimelineSeriesView& view : series_) {
    if (view.first_step == 0 || step < view.first_step || step > last_step_) {
      continue;
    }
    std::vector<double> values;
    if (!SeriesValues(view.id, &values, error)) return false;
    out->push_back({view.id, values[step - view.first_step]});
  }
  return true;
}

// ---------------------------------------------------------------------------

bool WriteTimelineArtifact(const std::string& dir) {
  const std::string path = dir + "/timeline.bin";
  const core::Status status = core::sectioned::WriteFileAtomically(
      path, Timeline::Global().BuildArtifact());
  if (!status.ok()) {
    core::LogLine(core::LogLevel::kWarn, "timeline: write failed",
                  {{"path", path}, {"why", status.error().message()}});
    return false;
  }
  return true;
}

}  // namespace sisyphus::obs
