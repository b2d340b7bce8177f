// Measurement lineage: per-record provenance from emission through panel
// aggregation into the estimates that cite it (DESIGN.md §9).
//
// The paper's §4 platform proposals are about auditability: an analyst
// should be able to ask "which measurements, taken why, under which
// faults, back this effect estimate?" The metrics registry (PR 2) answers
// that only in aggregate. The Lineage ledger tracks every SpeedTestRecord
// id through a terminal-state waterfall —
//
//   emitted → quarantined | archived | out_of_panel | dropped_sparsity
//           | aggregated  | donor    | treated
//
// — with the invariant that each emitted record lands in EXACTLY ONE
// terminal state (the deepest pipeline stage it reached). Panel cells
// carry compact contributing-record-id sets (delta-encoded sorted runs,
// FNV-digested for cheap equality), and estimates record which units —
// and hence records, intents, fault exposures, and vantages — back each
// per-unit effect and p-value.
//
// Cost tiers match the metrics registry:
//  - compiled out (-DSISYPHUS_OBS=OFF): the SISYPHUS_LINEAGE macro
//    expands to nothing and Lineage::enabled() is constant false;
//  - compiled in, disabled (the default): one global-flag load per site;
//  - enabled (--obs-out): mutex-guarded ledger updates off the hot loops
//    (emission happens at the serial merge, panel attribution once per
//    build, marks once per fit).
//
// Determinism contract: the ledger reflects only what the instrumented
// code did — never wall-clock — and events raised inside a
// core::ParallelFor task are captured into the task's buffer and replayed
// in ascending task-index order (the TaskObserver side-channel shared
// with the metrics registry), so ToJson() is byte-identical at any
// SISYPHUS_THREADS.
//
// Layering: obs cannot depend on measure/causal, so the ledger speaks in
// primitives (ids, unit-key strings, intent codes, fault bits). The
// canonical names for intent codes and fault bits live here so every
// consumer (artifact, lineageq, obscheck) renders them identically.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace sisyphus::obs {

/// Pipeline stages a record can terminate in, ordered by depth: a
/// record's terminal state is the numerically largest stage it reached.
enum class LineageStage : std::uint8_t {
  kEmitted = 0,          ///< produced but never handed to a store (tests)
  kQuarantined = 1,      ///< rejected by validating ingest
  kArchived = 2,         ///< archived, but no panel was ever built over it
  kOutOfPanel = 3,       ///< archived, outside the panel's time range
  kDroppedSparsity = 4,  ///< bucketed, but its unit was dropped as sparse
  kAggregated = 5,       ///< contributed to a kept panel cell, unused by fits
  kDonor = 6,            ///< its unit served in a fit's donor pool
  kTreated = 7,          ///< its unit was the treated series of a fit
  kShedOverload = 8,     ///< dropped by streaming overload shedding (§11)
};
inline constexpr std::size_t kLineageStageCount = 9;
const char* ToString(LineageStage stage);

/// Record-fault mask bits (set by measure::FaultInjector, named here so
/// the artifact and its consumers agree). kLineageFaultNames[i] names
/// bit (1 << i).
inline constexpr std::uint8_t kLineageFaultSkewed = 1;
inline constexpr std::uint8_t kLineageFaultTruncated = 2;
inline constexpr std::uint8_t kLineageFaultCorrupted = 4;
inline constexpr std::uint8_t kLineageFaultDuplicated = 8;
inline constexpr std::array<const char*, 4> kLineageFaultNames = {
    "skewed", "truncated", "corrupted", "duplicated"};

/// Canonical names for measure::Intent codes (0, 1, 2); codes beyond the
/// array render as "intent<code>".
inline constexpr std::array<const char*, 3> kLineageIntentNames = {
    "baseline", "user_initiated", "event_triggered"};
std::string LineageIntentName(std::uint8_t code);

/// A compact immutable set of record ids: consecutive runs of sorted ids
/// stored delta-encoded as [gap, len, gap, len, ...] where each gap is
/// measured from the end of the previous run (from 0 for the first), plus
/// an FNV-1a digest over the encoding for cheap equality. A panel cell's
/// contributing-record set is typically a handful of runs regardless of
/// how many records it holds, because platform ids are sequential per
/// vantage step.
class IdRunSet {
 public:
  IdRunSet() = default;

  /// Builds from ids sorted ascending (duplicates are collapsed).
  static IdRunSet FromSorted(const std::vector<std::uint64_t>& sorted_ids);

  /// Rebuilds from a previously serialized encoded() vector (an audit.bin
  /// id-run slice); size and digest are recomputed from the encoding.
  static IdRunSet FromEncoded(std::vector<std::uint64_t> encoded);

  std::uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::uint64_t digest() const { return digest_; }
  /// The raw [gap, len, ...] encoding (serialized verbatim as "runs").
  const std::vector<std::uint64_t>& encoded() const { return encoded_; }
  /// Expands back to the sorted id list.
  std::vector<std::uint64_t> Expand() const;

  friend bool operator==(const IdRunSet& a, const IdRunSet& b) {
    return a.digest_ == b.digest_ && a.encoded_ == b.encoded_;
  }

 private:
  std::vector<std::uint64_t> encoded_;
  std::uint64_t size_ = 0;
  std::uint64_t digest_ = 0;
};

/// Everything the platform knows about one emitted record at merge time.
struct LineageRecordInfo {
  std::uint64_t id = 0;        ///< sequential, 1-based (core::MeasurementId)
  std::uint32_t vantage = 0;   ///< vantage PoP index
  std::uint8_t intent = 0;     ///< measure::Intent code
  std::uint8_t attempts = 1;   ///< probe attempts consumed (clamped to 255)
  std::uint8_t fault_mask = 0; ///< kLineageFault* bits
  std::uint8_t copies = 1;     ///< delivered copies (2 = duplicated)
  bool archived = false;       ///< passed validating ingest
};

namespace internal {
extern bool g_lineage_enabled;

// One buffered ledger mutation. Public mutators funnel through events so
// the capture path (inside parallel tasks) and the direct path apply the
// exact same logic; field meaning depends on `kind` (see lineage.cc).
struct LineageEvent {
  enum class Kind : std::uint8_t {
    kBeginRun,
    kEmitted,
    kShed,
    kProbeFailure,
    kOutOfPanel,
    kUnitEmpty,
    kUnitKept,
    kUnitDropped,
    kCell,
    kMarkTreated,
    kMarkDonor,
    kEstimate,
  };
  Kind kind = Kind::kBeginRun;
  LineageRecordInfo record;        // kEmitted
  std::string name;                // run label / reason / unit / estimate label
  std::string unit;                // kEstimate: treated unit
  std::vector<std::string> names;  // kEstimate: donor units
  std::uint64_t id = 0;            // kOutOfPanel
  std::uint32_t period = 0;        // kCell
  std::uint64_t count = 0;         // failure count / observed cells
  std::uint64_t count2 = 0;        // masked cells
  double number = 0.0;             // missing fraction / effect
  double number2 = 0.0;            // p-value
  IdRunSet ids;                    // kCell / kUnitDropped
};

// Non-null while this thread executes a core::ParallelFor task with
// lineage enabled: events are captured here (set by the metrics TaskBuffer
// machinery) and replayed in task-index order.
extern thread_local std::vector<LineageEvent>* t_lineage_buffer;
}  // namespace internal

/// Aggregate waterfall accounting (per run or summed across runs).
struct LineageWaterfall {
  std::uint64_t probes_attempted = 0;  ///< emitted + probes_failed
  std::uint64_t probes_failed = 0;
  std::uint64_t emitted = 0;           ///< distinct record ids
  std::uint64_t delivered = 0;         ///< copies (duplication counts twice)
  std::uint64_t quarantined_copies = 0;
  std::uint64_t archived_copies = 0;
  /// Ids referenced by panel events without a matching RecordEmitted
  /// (possible only when a store is fed outside the platform, e.g. tests).
  std::uint64_t untracked = 0;
  /// terminal[stage] = records whose deepest stage is `stage`; sums to
  /// `emitted` (the exactly-one-terminal-state invariant).
  std::array<std::uint64_t, kLineageStageCount> terminal{};
  std::map<std::string, std::uint64_t> failure_reasons;
  /// Panel rollup (sums over the run's units).
  std::uint64_t units_kept = 0;
  std::uint64_t units_dropped = 0;
  std::uint64_t units_empty = 0;
  std::uint64_t cells_observed = 0;
  std::uint64_t cells_masked = 0;
};

/// The process-wide lineage ledger. All mutators are cheap no-ops while
/// disabled; hot call sites additionally go through SISYPHUS_LINEAGE so a
/// disabled ledger costs one flag load (and nothing at all under
/// -DSISYPHUS_OBS=OFF).
class Lineage {
 public:
  static Lineage& Global();
  static void Enable(bool on);
  static bool enabled() {
#if defined(SISYPHUS_OBS_DISABLED)
    return false;
#else
    return internal::g_lineage_enabled;
#endif
  }

  /// Clears every run (call at the start of an instrumented run).
  void Reset();

  /// Starts a new run ledger (one per campaign). Relabels the current run
  /// when it has recorded nothing yet, so an ObsRun-opened ledger can be
  /// renamed by the first campaign.
  void BeginRun(std::string label);

  // -- measure/platform --------------------------------------------------
  void RecordEmitted(const LineageRecordInfo& info);
  /// An emitted record dropped by the streaming overload-shed policy: it
  /// terminates in shed_overload with zero delivered copies, keeping
  /// emitted/delivered conservation exact (DESIGN.md §11).
  void RecordShed(const LineageRecordInfo& info);
  void RecordProbeFailure(std::string_view reason, std::uint64_t count = 1);

  // -- measure/panel -----------------------------------------------------
  void RecordOutOfPanel(std::uint64_t id);
  void PanelUnitEmpty(std::string_view unit);
  void PanelUnitKept(std::string_view unit, double missing_fraction,
                     std::uint64_t observed_cells, std::uint64_t masked_cells);
  void PanelUnitDropped(std::string_view unit, double missing_fraction,
                        std::uint64_t observed_cells,
                        std::uint64_t masked_cells, IdRunSet ids);
  /// One observed panel cell of a kept unit with its contributing ids.
  void PanelCell(std::string_view unit, std::uint32_t period, IdRunSet ids);

  // -- causal ------------------------------------------------------------
  /// Marks a kept unit's records as used by a fit. Idempotent; treated
  /// outranks donor. Safe inside parallel tasks (captured + replayed).
  void MarkTreated(std::string_view unit);
  void MarkDonor(std::string_view unit);
  /// Registers an estimate with the units backing it; the serialized entry
  /// carries the record/intent/fault/vantage composition of the treated
  /// unit and the donor pool, resolved from the panel ledger.
  void AddEstimate(std::string label, std::string treated_unit,
                   std::vector<std::string> donor_units, double effect,
                   double p_value);

  /// Waterfall totals summed across runs, with fit marks resolved.
  LineageWaterfall Totals() const;
  /// Number of run ledgers (diagnostics/tests).
  std::size_t run_count() const;

  /// Deterministic artifact JSON (schema sisyphus.lineage/1); compact by
  /// default — the columnar record arrays make indented output huge.
  std::string ToJson(int indent = 0) const;

  /// Applies a captured per-task event buffer in order (called from the
  /// TaskObserver merge on the region's calling thread).
  void Replay(const std::vector<internal::LineageEvent>& events);

  // Ledger internals, public so read-only consumers (the audit artifact
  // writer in src/audit/) can walk the resolved ledger through VisitRuns
  // without a parallel copy of the schema. Mutation stays private.
  struct RecordEntry {
    std::uint32_t vantage = 0;
    std::uint8_t intent = 0;
    std::uint8_t attempts = 0;
    std::uint8_t fault_mask = 0;
    std::uint8_t copies = 0;
    LineageStage stage = LineageStage::kEmitted;
    bool seen = false;  ///< RecordEmitted arrived (vs panel-only reference)
  };
  struct CellEntry {
    std::uint32_t period = 0;
    IdRunSet ids;
  };
  struct UnitLedger {
    bool dropped = false;
    double missing_fraction = 0.0;
    std::uint64_t observed_cells = 0;
    std::uint64_t masked_cells = 0;
    std::vector<CellEntry> cells;  ///< kept units only
    IdRunSet dropped_ids;          ///< dropped units only
    bool used_treated = false;
    bool used_donor = false;
  };
  struct EstimateEntry {
    std::string label;
    std::string treated;
    std::vector<std::string> donors;
    double effect = 0.0;
    double p_value = 0.0;  ///< NaN = not applicable (serialized null)
  };
  struct RunLedger {
    std::string label;
    std::vector<RecordEntry> records;  ///< index = id - 1
    std::map<std::string, std::uint64_t> probe_failures;
    std::map<std::string, UnitLedger> units;
    std::vector<EstimateEntry> estimates;
    std::uint64_t empty_units = 0;
    std::uint64_t event_count = 0;  ///< 0 = relabelable by BeginRun
  };

  /// Per-record stages with used_treated/used_donor unit flags folded in
  /// (pure function of one run ledger; shared by ToJson and the audit
  /// artifact writer so both resolve identical terminal states).
  static std::vector<LineageStage> ResolveStages(const RunLedger& run);

  /// Read-only visitor over the run ledgers, invoked with mu_ held: the
  /// audit writer serializes a consistent view without copying the ledger.
  /// `fn` must not call back into this Lineage.
  template <typename Fn>
  void VisitRuns(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    fn(static_cast<const std::vector<RunLedger>&>(runs_));
  }

 private:
  void Emit(internal::LineageEvent&& event);
  void Apply(const internal::LineageEvent& event);  // mu_ held
  RunLedger& CurrentRun();                          // mu_ held
  RecordEntry& EntryFor(RunLedger& run, std::uint64_t id);  // mu_ held

  mutable std::mutex mu_;
  std::vector<RunLedger> runs_;
};

}  // namespace sisyphus::obs

// Lineage call-site macro: `call` is a member call on the global ledger,
// e.g. SISYPHUS_LINEAGE(RecordProbeFailure("probe_loss")). Costs one
// global-flag load while disabled; expands to nothing under
// -DSISYPHUS_OBS=OFF.
#if defined(SISYPHUS_OBS_DISABLED)
#define SISYPHUS_LINEAGE(call) ((void)0)
#else
#define SISYPHUS_LINEAGE(call)                          \
  do {                                                  \
    if (::sisyphus::obs::internal::g_lineage_enabled) { \
      ::sisyphus::obs::Lineage::Global().call;          \
    }                                                   \
  } while (0)
#endif
