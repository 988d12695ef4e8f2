#include "util/flags.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "util/check.hpp"

namespace dbsm::util {

void flag_set::declare(const std::string& name,
                       const std::string& default_value,
                       const std::string& help) {
  entry e;
  e.value = default_value;
  e.default_value = default_value;
  e.help = help;
  entries_[name] = std::move(e);
}

bool flag_set::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage(argv[0]).c_str(), stderr);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      std::fputs(usage(argv[0]).c_str(), stderr);
      return false;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      std::fprintf(stderr, "unknown flag: --%s\n", name.c_str());
      std::fputs(usage(argv[0]).c_str(), stderr);
      return false;
    }
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (it->second.default_value == "true" ||
               it->second.default_value == "false") {
      value = "true";
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "flag --%s needs a value\n", name.c_str());
      return false;
    }
    it->second.value = value;
    it->second.set_explicitly = true;
  }
  return true;
}

const flag_set::entry& flag_set::find(const std::string& name) const {
  auto it = entries_.find(name);
  DBSM_CHECK_MSG(it != entries_.end(), "undeclared flag " << name);
  return it->second;
}

std::string flag_set::get_string(const std::string& name) const {
  return find(name).value;
}

std::int64_t flag_set::get_int(const std::string& name) const {
  return std::strtoll(find(name).value.c_str(), nullptr, 10);
}

std::uint64_t flag_set::get_u64(const std::string& name) const {
  const std::string& v = find(name).value;
  // strtoull accepts a leading '-' (wrapping the result), so reject it
  // explicitly; also insist the whole token parsed and did not overflow.
  const char* s = v.c_str();
  while (*s == ' ' || *s == '\t') ++s;
  DBSM_CHECK_MSG(*s != '-',
                 "flag --" << name << " must be >= 0, got " << v);
  errno = 0;
  char* end = nullptr;
  const std::uint64_t parsed = std::strtoull(s, &end, 10);
  DBSM_CHECK_MSG(end != s && *end == '\0' && errno != ERANGE,
                 "flag --" << name << " is not a valid unsigned integer: "
                           << v);
  return parsed;
}

double flag_set::get_double(const std::string& name) const {
  return std::strtod(find(name).value.c_str(), nullptr);
}

bool flag_set::get_bool(const std::string& name) const {
  const std::string& v = find(name).value;
  return v == "true" || v == "1" || v == "yes";
}

bool flag_set::is_set(const std::string& name) const {
  return find(name).set_explicitly;
}

std::string flag_set::usage(const std::string& program) const {
  std::ostringstream os;
  os << "usage: " << program << " [flags]\n";
  for (const auto& [name, e] : entries_) {
    os << "  --" << name << " (default: " << e.default_value << ")  "
       << e.help << "\n";
  }
  return os.str();
}

}  // namespace dbsm::util
