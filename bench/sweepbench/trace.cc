#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <variant>

namespace sweepbench {

using sweepmv::Message;

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kSimStep: return "sim.step";
    case Layer::kSourceQuery: return "source.query";
    case Layer::kSourceCommit: return "source.commit";
    case Layer::kBatchSubmit: return "batch.submit";
    case Layer::kRouter: return "router";
    case Layer::kCoreUpdate: return "core.update";
    case Layer::kCoreAnswer: return "core.answer";
    case Layer::kCrashRecover: return "ckpt.crash_recover";
    case Layer::kVerifyConstruct: return "verify.construct";
    case Layer::kVerifyStep: return "verify.step";
    case Layer::kVerifyHash: return "verify.hash";
    case Layer::kVerifySaveRestore: return "verify.save_restore";
    case Layer::kVerifyCheck: return "verify.check";
    case Layer::kNumLayers: break;
  }
  return "?";
}

void Tracer::Begin(Layer layer, int64_t update_id) {
  const Clock::time_point now = Clock::now();
  if (!have_epoch_) {
    epoch_ = now;
    have_epoch_ = true;
  }
  int32_t raw_index = -1;
  const bool outermost = stack_.empty();
  if (steps_ < kRawStepLimit && (outermost || stack_.back().raw_index >= 0)) {
    raw_index = static_cast<int32_t>(raw_.size());
    const double start_s =
        std::chrono::duration<double>(now - epoch_).count();
    raw_.push_back(RawSpan{layer, steps_,
                           outermost ? -1 : stack_.back().raw_index,
                           update_id, start_s, 0.0});
  }
  stack_.push_back(Open{layer, now, 0.0, raw_index});
}

void Tracer::End() {
  const Clock::time_point now = Clock::now();
  const Open open = stack_.back();
  stack_.pop_back();
  const double duration =
      std::chrono::duration<double>(now - open.start).count();
  LayerTotals& totals = totals_[static_cast<size_t>(open.layer)];
  totals.self_s += duration - open.child_s;
  ++totals.calls;
  if (open.raw_index >= 0) {
    raw_[static_cast<size_t>(open.raw_index)].end_s =
        std::chrono::duration<double>(now - epoch_).count();
  }
  if (stack_.empty()) {
    ++steps_;
  } else {
    stack_.back().child_s += duration;
  }
}

bool Tracer::WriteRaw(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (size_t i = 0; i < raw_.size(); ++i) {
    const RawSpan& s = raw_[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"layer\": \"%s\", \"step\": %lld, "
                 "\"parent\": %d, \"update\": %lld, \"start_s\": %.9f, "
                 "\"end_s\": %.9f}\n",
                 i, LayerName(s.layer), static_cast<long long>(s.step),
                 s.parent, static_cast<long long>(s.update_id), s.start_s,
                 s.end_s);
  }
  return std::fclose(out) == 0;
}

void AddTraceMetrics(WorkloadResult* result, const Tracer& tracer,
                     double traced_total,
                     const std::vector<double>& traced_rep_s,
                     const std::vector<double>& untraced_rep_s,
                     const std::string& trace_dir,
                     const std::string& workload) {
  double self_sum = 0.0;
  for (int l = 0; l < static_cast<int>(Layer::kNumLayers); ++l) {
    self_sum += tracer.totals(static_cast<Layer>(l)).self_s;
  }
  const double unattributed =
      traced_total > 0.0 ? (traced_total - self_sum) / traced_total : 0.0;
  const double untraced = Summarize(untraced_rep_s).median;
  const double overhead =
      untraced > 0.0 ? Summarize(traced_rep_s).median / untraced - 1.0 : 0.0;
  result->Add("trace.overhead_frac", overhead, "frac");
  result->Add("trace.unattributed_frac", unattributed, "frac");
  char line[160];
  std::snprintf(line, sizeof(line),
                "trace: layer self times %.4f s of %.4f s traced "
                "(unattributed %.2f%%), overhead %.2f%%",
                self_sum, traced_total, 100.0 * unattributed,
                100.0 * overhead);
  result->notes.push_back(line);
  if (!(std::abs(unattributed) <= 0.05)) {
    result->trace_check_failed = true;
    result->notes.push_back(
        "FAILED: layer self times miss the traced total by more than 5%");
  }
  if (!trace_dir.empty()) {
    const std::string path = trace_dir + "/" + workload + ".spans.jsonl";
    if (tracer.WriteRaw(path)) {
      result->notes.push_back("trace: raw spans in " + path);
    } else {
      result->trace_check_failed = true;
      result->notes.push_back("FAILED: cannot write " + path);
    }
  }
}

void TimedSite::OnMessage(int from, Message msg) {
  int64_t update_id = -1;
  if (const auto* update = std::get_if<sweepmv::UpdateMessage>(&msg)) {
    update_id = update->update.id;
  }
  const Layer layer =
      role_ == Role::kSource   ? Layer::kSourceQuery
      : role_ == Role::kRouter ? Layer::kRouter
      : update_id >= 0         ? Layer::kCoreUpdate
                               : Layer::kCoreAnswer;
  {
    ScopedSpan span(tracer_, layer, update_id);
    inner_->OnMessage(from, std::move(msg));
  }
  if (warehouse_ != nullptr && update_id >= 0) {
    const int64_t depth =
        static_cast<int64_t>(warehouse_->update_queue().size());
    ++queue_samples_;
    queue_depth_sum_ += depth;
    queue_depth_max_ = std::max(queue_depth_max_, depth);
  }
}

}  // namespace sweepbench
