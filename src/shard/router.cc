#include "shard/router.h"

#include "common/check.h"
#include "common/log.h"

namespace sweepmv {

ShardRouter::ShardRouter(int site_id, Network* network,
                         std::vector<int> source_sites,
                         std::vector<int> shard_sites)
    : site_id_(site_id),
      network_(network),
      source_sites_(std::move(source_sites)),
      shard_sites_(std::move(shard_sites)) {
  SWEEP_CHECK(network_ != nullptr);
  SWEEP_CHECK(!source_sites_.empty());
  SWEEP_CHECK(!shard_sites_.empty());
}

void ShardRouter::OnMessage(int from, Message msg) {
  (void)from;
  if (auto* update = std::get_if<UpdateMessage>(&msg)) {
    ++updates_broadcast_;
    SWEEP_LOG(Debug) << "router broadcasts "
                     << update->update.ToDisplayString();
    // Every shard but the last gets a copy; the last takes the message.
    for (size_t i = 0; i + 1 < shard_sites_.size(); ++i) {
      network_->Send(site_id_, shard_sites_[i], UpdateMessage{update->update});
    }
    network_->Send(site_id_, shard_sites_.back(), std::move(msg));
    return;
  }
  if (auto* query = std::get_if<QueryRequest>(&msg)) {
    SWEEP_CHECK(query->target_rel >= 0 &&
                query->target_rel <
                    static_cast<int>(source_sites_.size()));
    ++queries_forwarded_;
    const int target =
        source_sites_[static_cast<size_t>(query->target_rel)];
    network_->Send(site_id_, target, std::move(msg));
    return;
  }
  if (auto* answer = std::get_if<QueryAnswer>(&msg)) {
    SWEEP_CHECK_MSG(answer->query_id >= 0,
                    "query answer without a routable id");
    ++answers_returned_;
    const auto owner = static_cast<size_t>(
        answer->query_id % static_cast<int64_t>(shard_sites_.size()));
    network_->Send(site_id_, shard_sites_[owner], std::move(msg));
    return;
  }
  SWEEP_CHECK_MSG(false,
                  "shard router only relays sweep-protocol traffic "
                  "(updates, incremental queries, answers)");
}

}  // namespace sweepmv
