#ifndef WTPG_SCHED_UTIL_FLAGS_H_
#define WTPG_SCHED_UTIL_FLAGS_H_

#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace wtpgsched {

// Minimal command-line flag parser for the tools (no third-party deps).
// Supports --name=value and --name value; bools accept --name /
// --name=true / --name=false. Unknown flags are errors; positional
// arguments are collected in order.
class FlagParser {
 public:
  FlagParser& AddString(const std::string& name, std::string default_value,
                        std::string help);
  FlagParser& AddInt(const std::string& name, int64_t default_value,
                     std::string help);
  FlagParser& AddDouble(const std::string& name, double default_value,
                        std::string help);
  FlagParser& AddBool(const std::string& name, bool default_value,
                      std::string help);

  // Parses argv (skipping argv[0]). On error returns InvalidArgument.
  Status Parse(int argc, const char* const* argv);

  const std::string& GetString(const std::string& name) const;
  int64_t GetInt(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // True when the flag is declared.
  bool Has(const std::string& name) const { return flags_.count(name) > 0; }

  // True when the flag appeared on the command line (as opposed to holding
  // its default). Lets tools overlay explicit flags on a --config file.
  bool WasSet(const std::string& name) const;

  // Usage text listing all flags with defaults and help strings.
  std::string Help() const;

 private:
  enum class Type { kString, kInt, kDouble, kBool };
  struct Flag {
    Type type;
    std::string help;
    std::string string_value;
    int64_t int_value = 0;
    double double_value = 0.0;
    bool bool_value = false;
    bool was_set = false;
  };

  Status SetValue(Flag* flag, const std::string& name,
                  const std::string& value);
  const Flag& Find(const std::string& name, Type type) const;

  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace wtpgsched

#endif  // WTPG_SCHED_UTIL_FLAGS_H_
