// Span tracing for sweepbench's traced run.
//
// Spans come only from the benchmark's own files: a TimedSite proxy is
// registered with the network in place of every site, and the benchmark
// times its own injection, crash and restart closures and each
// Simulator::Step around them. A span's self time is its duration minus
// the time its child spans cover, so the self times of all spans sum to
// the time spent inside the outermost spans; what the outermost spans do
// not cover is the trace's unattributed time.
//
// Per-layer totals are kept for every span; raw spans only for the first
// kRawStepLimit outermost spans, written out at exit (WriteRaw).

#ifndef SWEEPBENCH_TRACE_H_
#define SWEEPBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "core/warehouse.h"
#include "sim/site.h"

namespace sweepbench {

enum class Layer : int {
  kSimStep = 0,       // one Simulator::Step: dispatch, network, session
  kSourceQuery,       // DataSource answering a sweep query (index probe)
  kSourceCommit,      // a client transaction committing at its source
  kBatchSubmit,       // BatchPipeline::Submit (and the flushes it causes)
  kRouter,            // ShardRouter relaying one message
  kCoreUpdate,        // warehouse accepting an update (WAL, checkpoint)
  kCoreAnswer,        // warehouse handling an answer (compensation)
  kCrashRecover,      // warehouse crash / restart (checkpoint + WAL replay)
  kVerifyConstruct,   // ControlledSystem construction (explorer probe)
  kVerifyStep,        // ControlledSystem::Run(1)
  kVerifyHash,        // ControlledSystem::HashState
  kVerifySaveRestore, // ControlledSystem::SaveState + RestoreState
  kVerifyCheck,       // ControlledSystem::Check
  kNumLayers,
};

const char* LayerName(Layer layer);

class Tracer {
 public:
  static constexpr int64_t kRawStepLimit = 10'000;

  struct LayerTotals {
    double self_s = 0.0;
    int64_t calls = 0;
  };

  // Opens a span under the innermost open one; `update_id` is -1 when the
  // work carries no update.
  void Begin(Layer layer, int64_t update_id);
  void End();

  const LayerTotals& totals(Layer layer) const {
    return totals_[static_cast<size_t>(layer)];
  }

  // Writes the raw spans as JSON lines; false if the file cannot be
  // written.
  bool WriteRaw(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Open {
    Layer layer;
    Clock::time_point start;
    double child_s;
    int32_t raw_index;  // -1 once past the raw-span limit
  };
  struct RawSpan {
    Layer layer;
    int64_t step;       // index of the outermost span it belongs to
    int32_t parent;     // raw index of the parent span, -1 for outermost
    int64_t update_id;
    double start_s;     // since the tracer's first span
    double end_s;
  };

  std::array<LayerTotals, static_cast<size_t>(Layer::kNumLayers)> totals_;
  std::vector<Open> stack_;
  std::vector<RawSpan> raw_;
  int64_t steps_ = 0;
  bool have_epoch_ = false;
  Clock::time_point epoch_;
};

// RAII span; a null tracer makes it a no-op, so untraced code paths share
// the traced ones.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Layer layer, int64_t update_id = -1)
      : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(layer, update_id);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

// Registered with the network in place of `inner`: times every delivery
// and, for a warehouse, samples its update-queue depth after each update
// arrives.
class TimedSite : public sweepmv::Site {
 public:
  enum class Role { kSource, kRouter, kWarehouse };

  TimedSite(sweepmv::Site* inner, Role role, Tracer* tracer)
      : inner_(inner),
        role_(role),
        tracer_(tracer),
        warehouse_(dynamic_cast<const sweepmv::Warehouse*>(inner)) {}

  void OnMessage(int from, sweepmv::Message msg) override;

  int64_t queue_samples() const { return queue_samples_; }
  int64_t queue_depth_sum() const { return queue_depth_sum_; }
  int64_t queue_depth_max() const { return queue_depth_max_; }

 private:
  sweepmv::Site* inner_;
  Role role_;
  Tracer* tracer_;
  const sweepmv::Warehouse* warehouse_;  // null unless inner is one
  int64_t queue_samples_ = 0;
  int64_t queue_depth_sum_ = 0;
  int64_t queue_depth_max_ = 0;
};

// Finishes a traced run: adds trace.unattributed_frac (traced total not
// covered by any outermost span) and trace.overhead_frac (median traced
// repetition against the median untraced one), marks the result when the
// layer self times miss the traced total by more than 5%, and writes the
// raw spans to `trace_dir`/`workload`.spans.jsonl when a directory is
// given.
void AddTraceMetrics(WorkloadResult* result, const Tracer& tracer,
                     double traced_total,
                     const std::vector<double>& traced_rep_s,
                     const std::vector<double>& untraced_rep_s,
                     const std::string& trace_dir,
                     const std::string& workload);

}  // namespace sweepbench

#endif  // SWEEPBENCH_TRACE_H_
