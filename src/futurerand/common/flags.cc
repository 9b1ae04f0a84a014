#include "futurerand/common/flags.h"

#include <cerrno>
#include <cstdlib>

#include "futurerand/common/macros.h"

namespace futurerand {

namespace {

Status ParseInt64(const std::string& text, int64_t* out) {
  if (text.empty()) {
    return Status::InvalidArgument("expected an integer value");
  }
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) {
    return Status::InvalidArgument("not an integer: " + text);
  }
  *out = static_cast<int64_t>(value);
  return Status::OK();
}

Status ParseDouble(const std::string& text, double* out) {
  if (text.empty()) {
    return Status::InvalidArgument("expected a numeric value");
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size()) {
    return Status::InvalidArgument("not a number: " + text);
  }
  *out = value;
  return Status::OK();
}

Status ParseBool(const std::string& text, bool* out) {
  if (text.empty() || text == "true" || text == "1") {
    *out = true;
    return Status::OK();
  }
  if (text == "false" || text == "0") {
    *out = false;
    return Status::OK();
  }
  return Status::InvalidArgument("not a boolean: " + text);
}

}  // namespace

void FlagParser::Register(const std::string& name, Flag flag) {
  FR_CHECK_MSG(!name.empty(), "flag names must be non-empty");
  const auto [it, inserted] = flags_.emplace(name, std::move(flag));
  (void)it;
  FR_CHECK_MSG(inserted, "duplicate flag name");
}

void FlagParser::AddInt64(const std::string& name, int64_t* target,
                          const std::string& help) {
  Flag flag;
  flag.help = help;
  flag.default_value = std::to_string(*target);
  flag.setter = [target](const std::string& text) {
    return ParseInt64(text, target);
  };
  Register(name, std::move(flag));
}

void FlagParser::AddDouble(const std::string& name, double* target,
                           const std::string& help) {
  Flag flag;
  flag.help = help;
  flag.default_value = std::to_string(*target);
  flag.setter = [target](const std::string& text) {
    return ParseDouble(text, target);
  };
  Register(name, std::move(flag));
}

void FlagParser::AddString(const std::string& name, std::string* target,
                           const std::string& help) {
  Flag flag;
  flag.help = help;
  flag.default_value = *target;
  flag.setter = [target](const std::string& text) {
    *target = text;
    return Status::OK();
  };
  Register(name, std::move(flag));
}

void FlagParser::AddBool(const std::string& name, bool* target,
                         const std::string& help) {
  Flag flag;
  flag.help = help;
  flag.default_value = *target ? "true" : "false";
  flag.is_bool = true;
  flag.setter = [target](const std::string& text) {
    return ParseBool(text, target);
  };
  Register(name, std::move(flag));
}

Status FlagParser::Parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument("unexpected argument: " + arg +
                                     " (flags take the form --name=value)");
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    const size_t equals = name.find('=');
    if (equals != std::string::npos) {
      value = name.substr(equals + 1);
      name = name.substr(0, equals);
      has_value = true;
    }
    const auto it = flags_.find(name);
    if (it == flags_.end()) {
      return Status::InvalidArgument("unknown flag: --" + name);
    }
    if (!has_value && !it->second.is_bool) {
      // Consume the next argument as the value.
      if (i + 1 >= argc) {
        return Status::InvalidArgument("missing value for --" + name);
      }
      value = argv[++i];
    }
    FR_RETURN_NOT_OK(it->second.setter(value));
  }
  return Status::OK();
}

std::string FlagParser::Usage(const std::string& program_name) const {
  std::string usage = "Usage: ";
  usage += program_name;
  usage += " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    usage += "  --";
    usage += name;
    usage += "  (default: ";
    usage += flag.default_value;
    usage += ")\n      ";
    usage += flag.help;
    usage += '\n';
  }
  return usage;
}

}  // namespace futurerand
