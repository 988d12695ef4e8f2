#include "read/lease.hpp"

namespace dbsm::read {

const char* mode_name(mode m) {
  switch (m) {
    case mode::off:
      return "off";
    case mode::certified:
      return "certified";
    case mode::fast:
      return "fast";
  }
  return "?";
}

void lease::grant(std::uint32_t view_id) {
  if (held_ && view_ != 0 && view_id > view_) ++revocations_;
  held_ = true;
  suspended_ = false;
  view_ = view_id;
}

void lease::revoke(revoke_reason r) {
  switch (r) {
    case revoke_reason::view_change:
      if (held_) ++revocations_;
      held_ = false;
      break;
    case revoke_reason::suspicion:
      // The detector re-fires every heartbeat period while the suspect
      // stays silent; count one revocation per suspension episode.
      if (held_ && !suspended_) {
        suspended_ = true;
        ++revocations_;
      }
      break;
    case revoke_reason::exclusion:
      if (held_) ++revocations_;
      held_ = false;
      suspended_ = false;
      break;
  }
}

void lease::on_uniform_advance() {
  // A completed stability round needs a vote from every view member —
  // proof the suspected member is reachable again (or a view change
  // removed it, which re-granted the lease anyway).
  suspended_ = false;
}

}  // namespace dbsm::read
