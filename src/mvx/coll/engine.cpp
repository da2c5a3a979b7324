#include "mvx/coll/engine.hpp"

#include <algorithm>
#include <cstring>

#include "mvx/endpoint.hpp"
#include "mvx/telemetry.hpp"
#include "sim/process.hpp"

namespace ib12x::mvx::coll {

struct CollEngine::Exec {
  CollSchedule sched;
  Request user;

  struct Round {
    int deps_left = 0;
    bool issued = false;
    bool done = false;
    std::vector<Request> pending;  ///< posted transfers of this round
  };
  std::vector<Round> rounds;
  std::vector<std::vector<int>> dependents;
  int left = 0;   ///< rounds not yet done
  int first = 0;  ///< every round below this index is done; scans start here

  /// Moves `first` past the done prefix.
  void advance_first() {
    while (first < static_cast<int>(rounds.size()) &&
           rounds[static_cast<std::size_t>(first)].done) {
      ++first;
    }
  }

  /// True when `round`'s posted transfers have all completed.
  static bool transfers_done(const Round& round) {
    for (const Request& q : round.pending) {
      if (!q->done) return false;
    }
    return true;
  }
};

CollEngine::CollEngine(Endpoint& ep)
    : ep_(ep),
      schedules_(ep.telemetry().counter("coll.schedules")),
      rounds_done_(ep.telemetry().counter("coll.rounds")),
      ops_issued_(ep.telemetry().counter("coll.ops")) {}

CollEngine::~CollEngine() = default;

void CollEngine::issue_round(Exec& e, int r) {
  Exec::Round& round = e.rounds[static_cast<std::size_t>(r)];
  round.issued = true;
  // Ops run in listed order: local ops inline (on the current fiber, which
  // charges any Cpu op to whoever is driving progress), transfers posted.
  for (const CollOp& op : e.sched.rounds()[static_cast<std::size_t>(r)].ops) {
    ops_issued_.inc();
    switch (op.kind) {
      case CollOp::Kind::Isend:
        round.pending.push_back(ep_.start_send(CommKind::Collective, op.src, op.bytes, op.peer,
                                               op.tag, e.sched.ctx, op.lane));
        break;
      case CollOp::Kind::Irecv:
        round.pending.push_back(ep_.start_recv(op.dst, op.bytes, op.peer, op.tag, e.sched.ctx));
        break;
      case CollOp::Kind::ReduceLocal:
        reduce_apply(op.redop, op.dt, op.dst, op.src, op.count);
        break;
      case CollOp::Kind::Copy:
        if (op.bytes > 0) std::memcpy(op.dst, op.src, static_cast<std::size_t>(op.bytes));
        break;
      case CollOp::Kind::Cpu:
        if (op.cpu > 0) ep_.process().compute(op.cpu);
        break;
    }
  }
}

bool CollEngine::step(Exec& e) {
  // Drive to a local fixpoint: completing a round can unblock others, and a
  // freshly issued all-local round completes immediately.
  bool moved = true;
  while (moved) {
    moved = false;
    const int n = static_cast<int>(e.rounds.size());
    for (int r = e.first; r < n; ++r) {
      Exec::Round& round = e.rounds[static_cast<std::size_t>(r)];
      if (!round.issued && round.deps_left == 0) {
        issue_round(e, r);
        moved = true;
      }
      if (round.issued && !round.done) {
        if (Exec::transfers_done(round)) {
          round.done = true;
          round.pending.clear();
          --e.left;
          rounds_done_.inc();
          for (int d : e.dependents[static_cast<std::size_t>(r)]) {
            --e.rounds[static_cast<std::size_t>(d)].deps_left;
          }
          moved = true;
        }
      }
    }
    e.advance_first();
  }
  return e.left == 0;
}

void CollEngine::finish(Exec& e) {
  if (e.sched.on_complete) e.sched.on_complete();
  ep_.complete_request(e.user);
}

Request CollEngine::launch(CollSchedule sched) {
  schedules_.inc();
  auto e = std::make_unique<Exec>();
  e->sched = std::move(sched);
  e->user = make_request();

  const auto& rounds = e->sched.rounds();
  const int n = static_cast<int>(rounds.size());
  e->rounds.resize(static_cast<std::size_t>(n));
  e->dependents.resize(static_cast<std::size_t>(n));
  e->left = n;
  for (int r = 0; r < n; ++r) {
    e->rounds[static_cast<std::size_t>(r)].deps_left =
        static_cast<int>(rounds[static_cast<std::size_t>(r)].deps.size());
    for (int d : rounds[static_cast<std::size_t>(r)].deps) {
      e->dependents[static_cast<std::size_t>(d)].push_back(r);
    }
  }

  // First pass runs on the caller: a blocking collective's initial posts and
  // pack charges land on the rank's own fiber, as the inline code's did.
  if (step(*e)) {
    finish(*e);
    return e->user;
  }
  Request user = e->user;
  active_.push_back(std::move(e));
  return user;
}

bool CollEngine::poll_ready() const {
  for (const auto& e : active_) {
    const int n = static_cast<int>(e->rounds.size());
    for (int r = e->first; r < n; ++r) {
      const Exec::Round& round = e->rounds[static_cast<std::size_t>(r)];
      if (!round.issued && round.deps_left == 0) return true;
      if (round.issued && !round.done && Exec::transfers_done(round)) return true;
    }
  }
  return false;
}

void CollEngine::run_ready() {
  // Index loop: step() can block mid-issue (credits), during which the rank
  // fiber may launch() and append — the new exec is picked up next pass.
  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (active_[i] != nullptr && step(*active_[i])) {
      finish(*active_[i]);
      active_[i] = nullptr;
    }
  }
  active_.erase(std::remove(active_.begin(), active_.end(), nullptr), active_.end());
}

void CollEngine::progress_main(sim::Process& p) {
  for (;;) {
    p.wait_until(ep_.progress(),
                 [&] { return (shutdown_ && active_.empty()) || poll_ready(); });
    if (shutdown_ && active_.empty()) return;
    run_ready();
  }
}

void CollEngine::request_shutdown() {
  shutdown_ = true;
  ep_.progress().notify_all();
}

}  // namespace ib12x::mvx::coll
