#include "core/competitive.h"

#include <algorithm>
#include <cmath>

#include "data/weight.h"
#include "util/logging.h"

namespace besync {

std::string ShareOptionToString(ShareOption option) {
  switch (option) {
    case ShareOption::kEqualShare:
      return "equal-share";
    case ShareOption::kProportionalShare:
      return "proportional-share";
    case ShareOption::kPiggyback:
      return "piggyback";
  }
  return "unknown";
}

CompetitiveScheduler::CompetitiveScheduler(const CompetitiveConfig& config)
    : CooperativeScheduler(config.base), competitive_(config) {
  BESYNC_CHECK_GE(config.psi, 0.0);
  BESYNC_CHECK_LT(config.psi, 1.0);
}

std::string CompetitiveScheduler::name() const {
  return "competitive-" + ShareOptionToString(competitive_.option);
}

void CompetitiveScheduler::Initialize(Harness* harness) {
  CooperativeScheduler::Initialize(harness);
  BESYNC_CHECK_EQ(num_caches(), 1)
      << "the competitive protocol (Section 7) is defined for the paper's "
         "single-cache topology; multi-cache rate partitioning is future work";
  // Not a silent no-op: this SendPhase injects straight into cache_link(),
  // so a relay tree built by the base Initialize would simply be bypassed.
  BESYNC_CHECK_EQ(num_relays(), 0)
      << "the competitive protocol models the one-hop star; relay "
         "topologies are not supported";
  // Likewise: this SendPhase pushes refreshes, so an invalidation or TTL
  // run would either push from sources that must not or lose the share.
  BESYNC_CHECK(protocol_->emits_push_refreshes())
      << "the competitive protocol partitions push-refresh bandwidth; consistency "
         "protocol " << SyncProtocolKindToString(config_.protocol.kind)
      << " is not supported";
  const int m = num_sources();
  granted_rate_.assign(m, 0.0);
  credit_.assign(m, 0.0);

  const double reserved = competitive_.psi * config_.cache_bandwidth_avg;
  int64_t total_objects = 0;
  for (int j = 0; j < m; ++j) {
    total_objects += static_cast<int64_t>(sources_[j]->num_objects());
  }
  for (int j = 0; j < m; ++j) {
    sources_[j]->EnableSecondaryQueue();
    switch (competitive_.option) {
      case ShareOption::kEqualShare:
        granted_rate_[j] = reserved / static_cast<double>(m);
        break;
      case ShareOption::kProportionalShare:
        granted_rate_[j] = reserved *
                           static_cast<double>(sources_[j]->num_objects()) /
                           static_cast<double>(total_objects);
        break;
      case ShareOption::kPiggyback:
        granted_rate_[j] = 0.0;  // earned per cache-priority refresh instead
        break;
    }
  }
}

void CompetitiveScheduler::FillFeedback(ControlMessage* feedback, int source_index,
                                        double /*t*/) {
  feedback->granted_rate = granted_rate_[source_index];
}

void CompetitiveScheduler::SendPhase(double t) {
  harness_->scheduler_rng()->Shuffle(&source_order_);
  const double tick = harness_->config().tick_length;
  const double psi = competitive_.psi;
  const double piggyback_ratio = psi > 0.0 ? psi / (1.0 - psi) : 0.0;

  for (int j : source_order_) {
    SourceAgent& agent = *sources_[j];
    Link* source_link = &network_->source_link(j);
    Link* cache = &network_->cache_link();

    if (competitive_.option != ShareOption::kPiggyback) {
      // Rate-granted share: accrue credit, spend it on own-priority sends
      // before the threshold protocol runs.
      const double cap = std::max(2.0, 2.0 * granted_rate_[j] * tick);
      credit_[j] = std::min(credit_[j] + granted_rate_[j] * tick, cap);
      const int64_t allowance = static_cast<int64_t>(std::floor(credit_[j]));
      if (allowance > 0) {
        const int64_t sent = agent.SendSecondary(t, allowance, source_link, cache);
        credit_[j] -= static_cast<double>(sent);
      }
    }

    const int64_t threshold_sent = agent.SendPhase(t, source_link, network_.get());

    if (competitive_.option == ShareOption::kPiggyback && piggyback_ratio > 0.0) {
      // Earn Ψ/(1-Ψ) own-priority slots per cache-priority refresh.
      const double cap = std::max(2.0, 4.0 * piggyback_ratio);
      credit_[j] = std::min(
          credit_[j] + piggyback_ratio * static_cast<double>(threshold_sent), cap);
      const int64_t allowance = static_cast<int64_t>(std::floor(credit_[j]));
      if (allowance > 0) {
        const int64_t sent = agent.SendSecondary(t, allowance, source_link, cache);
        credit_[j] -= static_cast<double>(sent);
      }
    }
  }
}

void AssignConflictingSourceWeights(Workload* workload, double heavy, uint64_t seed) {
  BESYNC_CHECK(workload != nullptr);
  BESYNC_CHECK_GE(heavy, 1.0);
  Rng rng(seed);
  // Per source: a random half of its objects are source-heavy.
  for (int j = 0; j < workload->num_sources; ++j) {
    std::vector<size_t> member_indices;
    for (size_t i = 0; i < workload->objects.size(); ++i) {
      if (workload->objects[i].source_index == j) member_indices.push_back(i);
    }
    rng.Shuffle(&member_indices);
    for (size_t k = 0; k < member_indices.size(); ++k) {
      const double weight = k < member_indices.size() / 2 ? heavy : 1.0;
      workload->objects[member_indices[k]].source_weight = MakeConstantWeight(weight);
    }
  }
}

}  // namespace besync
