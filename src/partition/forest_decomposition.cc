#include "partition/forest_decomposition.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "util/contracts.h"

namespace cpt {

using congest::BroadcastRecords;
using congest::Combine;
using congest::ConvergeRecords;
using congest::Exchange;
using congest::Inbound;
using congest::Msg;
using congest::Record;
using congest::TreeView;

namespace {
constexpr std::uint32_t kTagActive = 10;
}

void run_forest_decomposition(congest::Simulator& sim, const Graph& g,
                              const PartForest& pf, const PeelingOptions& opt,
                              congest::RoundLedger& ledger,
                              PeelingResult& result, PeelScratch* scratch) {
  const NodeId n = g.num_nodes();
  const std::uint32_t cap = 3 * opt.alpha;
  const std::uint32_t s =
      opt.super_rounds != 0
          ? opt.super_rounds
          : static_cast<std::uint32_t>(
                std::ceil(std::log(std::max<double>(n, 2)) / std::log(1.5))) + 1;

  std::optional<PeelScratch> local_scratch;  // built only when not pooled
  PeelScratch& sc = scratch != nullptr ? *scratch : local_scratch.emplace();

  result.still_active_roots.clear();
  result.emulated_super_rounds = 0;
  congest::clear_record_table(result.out_records, n);
  if (result.neighbor_root.size() != n) result.neighbor_root.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    result.neighbor_root[v].assign(g.degree(v), kNoNode);
  }

  // Root-side state (driver arrays indexed by root node id).
  auto& active = sc.active;
  auto& learning = sc.learning;
  auto& rec_at_inact = sc.rec_at_inact;
  // Node-side state: does my part announce in pass A this super-round?
  auto& announces = sc.announces;
  active.assign(n, 0);
  learning.assign(n, 0);
  rec_at_inact.reset(n);
  announces.assign(n, 1);  // all parts start active
  for (const NodeId r : pf.live_roots()) active[r] = 1;

  // Scratch: per-node local records collected from pass A. The converge /
  // broadcast passes are pooled across super-rounds and calls (reset()
  // keeps per-node buffer capacity), so the loop is allocation-free in
  // steady state.
  auto& local_rec = sc.local_rec;
  local_rec.reset(n);
  auto& participates = sc.participates;
  participates.assign(n, 1);  // everyone starts active
  auto& announcing = sc.announcing;
  auto& participants = sc.participants;
  auto& inactivating = sc.inactivating;
  TreeView tree{&pf.parent_edge, &pf.children, &participates, nullptr,
                &participants};
  ConvergeRecords& conv = sc.conv;
  BroadcastRecords& bc = sc.bc;
  // The part forest is fixed for the whole peeling: one port sweep serves
  // every converge/broadcast pass below.
  sc.tree_ports.build(sim.network(), pf.parent_edge, pf.children);

  for (std::uint32_t ell = 1; ell <= s + 1; ++ell) {
    bool any_active = false;
    bool any_learning = false;
    for (const NodeId r : pf.live_roots()) {
      any_active = any_active || active[r];
      any_learning = any_learning || learning[r];
    }
    if (!any_active && !any_learning) {
      // Remaining super-rounds are silent listening; the schedule still
      // ticks one round each.
      ledger.charge("stage1/peel-quiet", s + 1 - ell + 1);
      break;
    }
    ++result.emulated_super_rounds;

    // ---- Pass A: 'Active' announcements (one round). ----
    // Announcers are exactly the members of still-active parts (pass C
    // already cleared `announces` for inactivated members); building the
    // sender list from the part member lists costs O(parts + announcers),
    // not O(n).
    local_rec.reset(n);
    announcing.clear();
    for (const NodeId r : pf.live_roots()) {
      if (!active[r]) continue;
      const auto& mem = pf.members[r];
      announcing.insert(announcing.end(), mem.begin(), mem.end());
    }
    Exchange exchange(
        n,
        [&](NodeId v, std::vector<std::pair<std::uint32_t, Msg>>& out) {
          if (!announces[v]) return;
          for (std::uint32_t p = 0; p < g.degree(v); ++p) {
            out.push_back(
                {p, Msg::make(kTagActive,
                              static_cast<std::int64_t>(pf.root[v]))});
          }
        },
        [&](NodeId v, std::span<const Inbound> inbox) {
          for (const Inbound& in : inbox) {
            if (in.msg.tag != kTagActive) continue;
            const NodeId r = static_cast<NodeId>(in.msg.w[0]);
            result.neighbor_root[v][in.port] = r;
            if (r != pf.root[v]) local_rec.push(v, {r, 1});
          }
        },
        &announcing);
    const auto ra = sim.run(exchange);
    ledger.add_pass("stage1/peel-exchange", std::max<std::uint64_t>(ra.rounds, 1),
                    ra.messages);

    // ---- Pass B: convergecast of distinct active foreign roots. ----
    // Participants: members of parts still active or learning. The
    // `participates` bits are maintained incrementally (parts only ever
    // leave, one super-round after inactivating -- see the decisions loop),
    // so refreshing mask + member list is O(parts + participants).
    participants.clear();
    for (const NodeId r : pf.live_roots()) {
      if (!(active[r] || learning[r])) continue;
      const auto& mem = pf.members[r];
      participants.insert(participants.end(), mem.begin(), mem.end());
    }
    conv.reset(tree, Combine::kSum, cap, &sc.tree_ports, opt.pipelined);
    for (const NodeId v : local_rec.touched_rows()) {
      if (participates[v] && !local_rec[v].empty()) {
        conv.initial[v] = local_rec[v];
      }
    }
    const auto rb = sim.run(conv);
    ledger.add_pass("stage1/peel-converge", rb.rounds, rb.messages);

    // ---- Decisions at roots (local computation). ----
    std::vector<NodeId> newly_inactive;
    for (const NodeId r : pf.live_roots()) {
      if (learning[r]) {
        // One super-round after inactivation: neighbors still announcing
        // now are the ones that stayed active; the rest of the
        // at-inactivation list inactivated simultaneously. The part is
        // done -- its members leave the participant set (the mask was
        // already read by this super-round's passes).
        learning[r] = 0;
        for (const NodeId v : pf.members[r]) participates[v] = 0;
        const auto now = conv.at_root(r);
        CPT_ASSERT(!conv.overflowed(r));
        for (const Record& rec : rec_at_inact[r]) {
          const bool still_active =
              std::any_of(now.begin(), now.end(),
                          [&](const Record& x) { return x.key == rec.key; });
          if (still_active || r < rec.key) {
            result.out_records[r].push_back(rec);
          }
        }
        continue;
      }
      if (!active[r] || ell > s) continue;
      if (conv.overflowed(r)) continue;  // > 3*alpha active neighbors
      // At most 3*alpha active neighbors: become inactive.
      active[r] = 0;
      learning[r] = 1;
      rec_at_inact[r] = conv.at_root(r);
      newly_inactive.push_back(r);
    }

    // ---- Pass C: notify members of parts that just became inactive. ----
    if (!newly_inactive.empty()) {
      inactivating.clear();
      for (const NodeId r : newly_inactive) {
        const auto& mem = pf.members[r];
        inactivating.insert(inactivating.end(), mem.begin(), mem.end());
      }
      bc.reset(TreeView{&pf.parent_edge, &pf.children, nullptr,
                        &newly_inactive, &inactivating},
               &sc.tree_ports, opt.pipelined);
      for (const NodeId r : newly_inactive) {
        bc.stream[r] = {{0, 0}};
        announces[r] = 0;  // the root itself
      }
      const auto rc = sim.run(bc);
      ledger.add_pass("stage1/peel-broadcast", rc.rounds, rc.messages);
      for (const NodeId v : bc.received.touched_rows()) {
        if (!bc.received[v].empty()) announces[v] = 0;
      }
    }
  }

  for (const NodeId r : pf.live_roots()) {
    if (active[r]) result.still_active_roots.push_back(r);
  }
}

PeelingResult run_forest_decomposition(congest::Simulator& sim, const Graph& g,
                                       const PartForest& pf,
                                       const PeelingOptions& opt,
                                       congest::RoundLedger& ledger) {
  PeelingResult result;
  run_forest_decomposition(sim, g, pf, opt, ledger, result, nullptr);
  return result;
}

}  // namespace cpt
