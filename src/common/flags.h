// Command-line flag parsing for the bench, tool and example binaries.
//
// FlagSet is declarative registration: bind a variable once
// (`fs.Register("num_threads", &n, "worker count")`), call Parse, and get
// typed validation, unknown-flag rejection and a generated --help for free.
//
// Accepts `--name value` and `--name=value`; bare `--name` sets a bool flag
// to true. Unknown flags, malformed values and positional arguments are
// errors, so typos in experiment scripts fail loudly.
#ifndef RTGCN_COMMON_FLAGS_H_
#define RTGCN_COMMON_FLAGS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"

namespace rtgcn {

/// \brief Declarative flag registry: bind variables, parse, get --help.
///
/// Defaults are whatever the bound variables hold at Register time; they
/// appear in the generated help text. Binaries call ParseOrDie; Parse and
/// help_requested() are the non-exiting pieces it is built from.
class FlagSet {
 public:
  /// `description` is a one-line summary of the binary for Usage().
  explicit FlagSet(std::string description = "")
      : description_(std::move(description)) {}

  void Register(const std::string& name, bool* var, const std::string& help);
  void Register(const std::string& name, int* var, const std::string& help);
  void Register(const std::string& name, int64_t* var,
                const std::string& help);
  void Register(const std::string& name, double* var,
                const std::string& help);
  void Register(const std::string& name, float* var, const std::string& help);
  void Register(const std::string& name, std::string* var,
                const std::string& help);

  /// String flag restricted to an explicit value set. Parse rejects any
  /// value not in `choices` (the error lists the accepted values), so a
  /// typo like --scale=smal fails loudly instead of being forwarded to
  /// code that may silently fall back.
  void RegisterChoice(const std::string& name, std::string* var,
                      const std::vector<std::string>& choices,
                      const std::string& help);

  /// Parses argv into the bound variables. Errors on unknown flags,
  /// malformed values and missing values. `--help` is always accepted.
  Status Parse(int argc, char** argv);

  /// True once Parse has seen `--help`.
  bool help_requested() const { return help_requested_; }

  /// Parse for a binary's main(): on `--help` prints Usage() and exits 0;
  /// on a malformed or unknown flag, or parsed values that `validate`
  /// (when given) rejects, prints the error and exits 2.
  void ParseOrDie(int argc, char** argv,
                  const std::function<Status()>& validate = nullptr);

  /// Generated help text: one entry per registered flag with its type,
  /// default and help string.
  std::string Usage(const char* argv0 = nullptr) const;

 private:
  struct Flag {
    std::string name;
    std::string help;
    std::string type;          // "bool", "int", "double", "string"
    std::string default_text;  // value at Register time, for Usage()
    bool is_bool = false;
    std::function<bool(const std::string&)> set;  // false = parse failure
  };

  const Flag* Find(const std::string& name) const;
  void Add(Flag flag);

  std::string description_;
  std::vector<Flag> flags_;
  bool help_requested_ = false;
};

}  // namespace rtgcn

#endif  // RTGCN_COMMON_FLAGS_H_
