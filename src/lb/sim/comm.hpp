// Inter-domain communication engine for the sharded execution layer
// (lb/shard/): K ownership domains exchanging typed boundary payloads
// over K×K point-to-point links in barrier-synchronous supersteps.  At
// K = n every node is a domain and this is the paper's per-node message
// machine; the dense K×K channel matrix then costs O(n²) memory, which
// keeps K = n a test-scale configuration.
//
// The engine is a staged mailbox.  Within a superstep every domain may
// write to its outgoing links (channels (d, *)) and read from its
// incoming ones (channels (*, d)); those index sets are disjoint per
// domain, so the sharded engine can run the pack/unpack phases on a
// thread pool with no locking.  deliver() is the barrier: it flips
// staged payloads into readable inboxes and does the accounting.
//
// All accounting is *modeled* and therefore deterministic: a nonempty
// link carries one message per superstep, bytes are the payload size,
// and the per-receiving-domain wait is the critical path over its
// in-links under the configured latency/bandwidth (LinkConfig).  Wall
// clock never enters, so comm metrics are part of the bit-identity
// surface (DESIGN.md §7).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "lb/util/assert.hpp"

namespace lb::sim {

/// Modeled cost of one directed inter-domain link.  Defaults model a
/// free interconnect (counts are still tracked).
struct LinkConfig {
  double latency_us = 0.0;   ///< per-superstep cost of a nonempty link
  double us_per_byte = 0.0;  ///< inverse bandwidth
};

/// Cumulative modeled communication totals for one receiving domain.
struct CommTotals {
  std::uint64_t messages = 0;        ///< nonempty in-links summed over supersteps
  std::uint64_t boundary_bytes = 0;  ///< payload bytes received
  double wait_us = 0.0;              ///< Σ per-superstep critical-path waits
};

class CommEngine {
 public:
  explicit CommEngine(std::size_t domains);

  std::size_t domains() const { return domains_; }

  /// Set the cost model for every link (kept for links without overrides).
  void set_default_link(const LinkConfig& cfg);
  /// Override one directed link (e.g. the straggler act in the example).
  void set_link(std::size_t from, std::size_t to, const LinkConfig& cfg);

  /// Stage `count` values of V on the from→to link.  Payloads are raw
  /// bytes (memcpy) so int64 loads survive verbatim — no double round
  /// trip — and byte accounting is the natural unit.  Trivially-copyable
  /// V only.  Safe to call concurrently for distinct `from`.
  template <class V>
  void send(std::size_t from, std::size_t to, const V* data, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<V>);
    if (count == 0) return;
    std::vector<std::byte>& staged = channel(from, to).staged;
    const std::size_t offset = staged.size();
    staged.resize(offset + count * sizeof(V));
    std::memcpy(staged.data() + offset, data, count * sizeof(V));
  }

  /// Read `count` values of V from the from→to inbox, advancing the read
  /// cursor.  Must mirror the sender's send() sequence exactly (the
  /// channel is a typed-erased FIFO).  Safe concurrently for distinct `to`.
  template <class V>
  void recv(std::size_t from, std::size_t to, V* out, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<V>);
    if (count == 0) return;
    Channel& ch = channel(from, to);
    // A receiver whose unpack schedule disagrees with the sender's pack
    // schedule would otherwise read past the payload silently.
    LB_ASSERT_MSG(ch.cursor + count * sizeof(V) <= ch.inbox.size(),
                  "comm recv overruns the channel inbox");
    std::memcpy(out, ch.inbox.data() + ch.cursor, count * sizeof(V));
    ch.cursor += count * sizeof(V);
  }

  /// Superstep barrier: everything staged becomes readable, previous
  /// inboxes are discarded, and the modeled accounting is updated.
  /// Single-threaded by contract (the sharded engine calls it between
  /// parallel phases).
  void deliver();

  /// Cumulative totals for receiving domain `d` (the engine diffs these
  /// across deliver()s to attribute per-round costs).
  const CommTotals& totals(std::size_t d) const { return totals_[d]; }
  /// Sum over all domains.
  CommTotals grand_totals() const;

  std::size_t supersteps() const { return supersteps_; }

 private:
  struct Channel {
    std::vector<std::byte> staged;  ///< written this superstep
    std::vector<std::byte> inbox;   ///< readable since last deliver()
    std::size_t cursor = 0;         ///< read offset into inbox
    LinkConfig cfg;
  };

  Channel& channel(std::size_t from, std::size_t to) {
    return channels_[from * domains_ + to];
  }

  std::size_t domains_;
  std::vector<Channel> channels_;      // K×K, row-major by sender
  std::vector<CommTotals> totals_;     // per receiving domain
  std::size_t supersteps_ = 0;
};

}  // namespace lb::sim
