#include "net/transport.h"

#include <utility>

namespace ntier::net {

void Transport::send(AttemptFn attempt, ResultFn on_result,
                     RetransmitFn on_retransmit) {
  ++stats_.sent;
  MessagePtr p = message_pool().make();
  p->attempt = std::move(attempt);
  p->on_result = std::move(on_result);
  p->on_retransmit = std::move(on_retransmit);
  attempt_at(std::move(p), link_.sample());
}

void Transport::attempt_at(MessagePtr p, sim::Duration delay) {
  sim_.after(delay, [this, p] {
    ++p->attempts;
    // A degraded link may lose the packet in flight; the sender cannot
    // tell a loss from an admission refusal — both go unacked and
    // retransmit after the same RTO.
    const bool lost_in_network = link_.lose_packet();
    if (!lost_in_network && p->attempt()) {
      ++stats_.delivered;
      if (p->on_result) {
        p->on_result(TxOutcome{true, p->attempts, p->drops, p->retrans_delay});
      }
      return;
    }
    if (lost_in_network) {
      ++stats_.link_lost;
    } else {
      ++stats_.drops;
    }
    if (p->drops >= rto_.max_retries) {
      ++stats_.failed;
      ++stats_.retransmit_exhausted;
      if (p->on_result) {
        p->on_result(TxOutcome{false, p->attempts, p->drops + 1, p->retrans_delay});
      }
      return;
    }
    const sim::Duration rto = rto_.rto(p->drops);
    ++p->drops;
    ++stats_.retransmits;
    p->retrans_delay += rto;
    if (p->on_retransmit) p->on_retransmit(sim_.now(), rto, p->attempts);
    attempt_at(p, rto + link_.sample());
  });
}

}  // namespace ntier::net
