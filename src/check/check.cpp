#include "check/check.hpp"

#include "check/monitors.hpp"

namespace dbsm::check {

std::string report::summary() const {
  if (ok) {
    return "ok (" + std::to_string(decisions_checked) + " decisions, " +
           std::to_string(views_checked) + " view installs, " +
           std::to_string(log_resets_checked) + " state transfers, " +
           std::to_string(rejoins_checked) + " rejoins checked)";
  }
  const violation& v = violations.front();
  return v.invariant + " violated at site " + std::to_string(v.site) + ", t=" +
         std::to_string(to_seconds(v.at)) + "s: " + v.evidence +
         (violations.size() > 1
              ? " (+" + std::to_string(violations.size() - 1) + " more)"
              : "");
}

checker::checker(config cfg) : cfg_(cfg) {}

std::unique_ptr<checker> checker::standard(config cfg, unsigned sites,
                                           const cert::cert_config& cert_cfg,
                                           const place::placement& placement) {
  auto c = std::make_unique<checker>(cfg);
  auto order = std::make_unique<agreed_prefix_monitor>();
  const agreed_prefix_monitor& agreed = *order;
  c->add(std::move(order));
  c->add(std::make_unique<view_synchrony_monitor>(sites));
  c->add(std::make_unique<primary_partition_monitor>(sites));
  c->add(std::make_unique<cert_oracle_monitor>(sites, cert_cfg));
  c->add(std::make_unique<recovery_convergence_monitor>(cfg));
  // Only partial placements add the placement-consistency monitor: full
  // runs leave it out (and synthetic event-stream tests that never emit
  // apply events stay valid).
  if (!placement.is_full()) {
    c->add(std::make_unique<placement_monitor>(placement));
  }
  // The read-snapshot monitor is always registered: it sees zero read
  // events unless the fast read path is configured. It reads the agreed
  // order of monitor 1, registered first, so at every event it validates
  // against an order that has already taken that event in.
  c->add(std::make_unique<read_snapshot_monitor>(agreed));
  return c;
}

void checker::add(std::unique_ptr<monitor> m) {
  monitors_.push_back(std::move(m));
}

void checker::decision(const decision_event& e) {
  if (halted_) return;
  ++report_.decisions_checked;
  for (auto& m : monitors_) m->on_decision(e, *this);
}

void checker::applied(const apply_event& e) {
  if (halted_) return;
  ++report_.applies_checked;
  for (auto& m : monitors_) m->on_apply(e, *this);
}

void checker::view_installed(const view_event& e) {
  if (halted_) return;
  ++report_.views_checked;
  for (auto& m : monitors_) m->on_view(e, *this);
}

void checker::excluded(const excluded_event& e) {
  if (halted_) return;
  for (auto& m : monitors_) m->on_excluded(e, *this);
}

void checker::log_reset(const log_reset_event& e) {
  if (halted_) return;
  ++report_.log_resets_checked;
  for (auto& m : monitors_) m->on_log_reset(e, *this);
}

void checker::recovery_started(const recovery_start_event& e) {
  if (halted_) return;
  for (auto& m : monitors_) m->on_recovery_start(e, *this);
}

void checker::rejoined(const rejoin_event& e) {
  if (halted_) return;
  ++report_.rejoins_checked;
  for (auto& m : monitors_) m->on_rejoin(e, *this);
}

void checker::read(const read_event& e) {
  if (halted_) return;
  ++report_.reads_checked;
  for (auto& m : monitors_) m->on_read(e, *this);
}

void checker::run_end(sim_time now) {
  if (halted_) return;
  for (auto& m : monitors_) m->on_run_end(now, *this);
}

void checker::raise(violation v) {
  report_.ok = false;
  report_.violations.push_back(std::move(v));
  if (cfg_.halt_on_violation && !halted_) {
    halted_ = true;
    if (halt_) halt_();
  }
}

}  // namespace dbsm::check
