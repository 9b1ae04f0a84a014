// A minimal command-line flag parser for the tools and harnesses.
//
// Supports --name=value and --name value forms, plus bare --bool_flag.
// Unknown flags, malformed values and stray non-flag arguments are errors
// (tools should not silently ignore typos in experiment parameters).

#ifndef FUTURERAND_COMMON_FLAGS_H_
#define FUTURERAND_COMMON_FLAGS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "futurerand/common/status.h"

namespace futurerand {

/// Registry of typed flags bound to caller-owned variables.
class FlagParser {
 public:
  FlagParser() = default;

  FlagParser(const FlagParser&) = delete;
  FlagParser& operator=(const FlagParser&) = delete;

  /// Registers flags. `target` keeps its current value as the default and
  /// must outlive Parse(). Names must be unique and non-empty.
  void AddInt64(const std::string& name, int64_t* target,
                const std::string& help);
  void AddDouble(const std::string& name, double* target,
                 const std::string& help);
  void AddString(const std::string& name, std::string* target,
                 const std::string& help);
  /// Accepts --name, --name=true/false/1/0.
  void AddBool(const std::string& name, bool* target, const std::string& help);

  /// Parses argv[1..argc-1]. On success the bound variables are updated.
  /// Every argument must be a flag or the value of the flag before it: a
  /// stray argument (`input.csv`, `-n=7`, or the `false` of
  /// `--bool_flag false`) is an InvalidArgument naming it.
  Status Parse(int argc, const char* const* argv);

  /// A formatted help string listing every flag with its default and help
  /// text.
  std::string Usage(const std::string& program_name) const;

 private:
  struct Flag {
    std::string help;
    std::string default_value;
    bool is_bool = false;
    // Parses the value text into the bound variable; empty text means the
    // bare --flag form (bool only).
    std::function<Status(const std::string&)> setter;
  };

  void Register(const std::string& name, Flag flag);

  std::map<std::string, Flag> flags_;
};

}  // namespace futurerand

#endif  // FUTURERAND_COMMON_FLAGS_H_
