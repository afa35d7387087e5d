#include "common/flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "common/strings.h"

namespace rtgcn {

namespace {

// Strict parsers: the whole token must be consumed, so "12x" is an error
// rather than silently becoming 12.
bool ParseInt64(const std::string& s, int64_t* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

bool ParseBool(const std::string& s, bool* out) {
  if (s == "true" || s == "1" || s == "yes") {
    *out = true;
    return true;
  }
  if (s == "false" || s == "0" || s == "no") {
    *out = false;
    return true;
  }
  return false;
}

// Is `s` something ParseBool accepts? Decides whether a bare bool flag
// consumes the following token as its value.
bool LooksLikeBool(const std::string& s) {
  bool ignored;
  return ParseBool(s, &ignored);
}

// Shortest round-trip-ish rendering for Usage() default values.
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

}  // namespace

void FlagSet::Add(Flag flag) {
  RTGCN_CHECK(Find(flag.name) == nullptr)
      << "flag --" << flag.name << " registered twice";
  flags_.push_back(std::move(flag));
}

void FlagSet::Register(const std::string& name, bool* var,
                       const std::string& help) {
  Flag f;
  f.name = name;
  f.help = help;
  f.type = "bool";
  f.default_text = *var ? "true" : "false";
  f.is_bool = true;
  f.set = [var](const std::string& s) { return ParseBool(s, var); };
  Add(std::move(f));
}

void FlagSet::Register(const std::string& name, int* var,
                       const std::string& help) {
  Flag f;
  f.name = name;
  f.help = help;
  f.type = "int";
  f.default_text = std::to_string(*var);
  f.set = [var](const std::string& s) {
    int64_t v;
    if (!ParseInt64(s, &v)) return false;
    *var = static_cast<int>(v);
    return true;
  };
  Add(std::move(f));
}

void FlagSet::Register(const std::string& name, int64_t* var,
                       const std::string& help) {
  Flag f;
  f.name = name;
  f.help = help;
  f.type = "int";
  f.default_text = std::to_string(*var);
  f.set = [var](const std::string& s) { return ParseInt64(s, var); };
  Add(std::move(f));
}

void FlagSet::Register(const std::string& name, double* var,
                       const std::string& help) {
  Flag f;
  f.name = name;
  f.help = help;
  f.type = "double";
  f.default_text = FormatDouble(*var);
  f.set = [var](const std::string& s) { return ParseDouble(s, var); };
  Add(std::move(f));
}

void FlagSet::Register(const std::string& name, float* var,
                       const std::string& help) {
  Flag f;
  f.name = name;
  f.help = help;
  f.type = "double";
  f.default_text = FormatDouble(static_cast<double>(*var));
  f.set = [var](const std::string& s) {
    double v;
    if (!ParseDouble(s, &v)) return false;
    *var = static_cast<float>(v);
    return true;
  };
  Add(std::move(f));
}

void FlagSet::Register(const std::string& name, std::string* var,
                       const std::string& help) {
  Flag f;
  f.name = name;
  f.help = help;
  f.type = "string";
  f.default_text = "\"" + *var + "\"";
  f.set = [var](const std::string& s) {
    *var = s;
    return true;
  };
  Add(std::move(f));
}

void FlagSet::RegisterChoice(const std::string& name, std::string* var,
                             const std::vector<std::string>& choices,
                             const std::string& help) {
  RTGCN_CHECK(!choices.empty()) << "flag --" << name << " has no choices";
  std::string type = "one of ";
  for (size_t i = 0; i < choices.size(); ++i) {
    if (i > 0) type += "|";
    type += choices[i];
  }
  Flag f;
  f.name = name;
  f.help = help;
  f.type = std::move(type);
  f.default_text = "\"" + *var + "\"";
  f.set = [var, choices](const std::string& s) {
    for (const std::string& c : choices) {
      if (s == c) {
        *var = s;
        return true;
      }
    }
    return false;
  };
  Add(std::move(f));
}

const FlagSet::Flag* FlagSet::Find(const std::string& name) const {
  for (const Flag& f : flags_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

Status FlagSet::Parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      return Status::InvalidArgument("unexpected positional argument: ", arg);
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      has_value = true;
      arg = arg.substr(0, eq);
    }
    if (arg == "help") {
      help_requested_ = true;
      continue;
    }
    const Flag* flag = Find(arg);
    if (flag == nullptr) {
      return Status::InvalidArgument("unknown flag --", arg,
                                     " (try --help)");
    }
    if (!has_value) {
      if (flag->is_bool) {
        // Bare `--flag` means true; consume the next token only when it is
        // unambiguously a bool literal (`--flag false`).
        if (i + 1 < argc && LooksLikeBool(argv[i + 1])) {
          value = argv[++i];
        } else {
          value = "true";
        }
      } else {
        if (i + 1 >= argc || StartsWith(argv[i + 1], "--")) {
          return Status::InvalidArgument("flag --", arg, " requires a value");
        }
        value = argv[++i];
      }
    }
    if (!flag->set(value)) {
      return Status::InvalidArgument("invalid value for --", arg, " (",
                                     flag->type, "): '", value, "'");
    }
  }
  return Status::OK();
}

void FlagSet::ParseOrDie(int argc, char** argv,
                         const std::function<Status()>& validate) {
  Status status = Parse(argc, argv);
  if (help_requested_) {
    std::printf("%s", Usage(argv[0]).c_str());
    std::exit(0);
  }
  if (status.ok() && validate) status = validate();
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", argv[0], status.ToString().c_str());
    std::exit(2);
  }
}

std::string FlagSet::Usage(const char* argv0) const {
  std::string out = "Usage: ";
  out += argv0 != nullptr ? argv0 : "<binary>";
  out += " [flags]\n";
  if (!description_.empty()) {
    out += description_;
    out += '\n';
  }
  out += "\nFlags:\n";
  for (const Flag& f : flags_) {
    out += "  --" + f.name + " (" + f.type + "; default " + f.default_text +
           ")\n        " + f.help + "\n";
  }
  out += "  --help\n        print this message and exit\n";
  return out;
}

}  // namespace rtgcn
