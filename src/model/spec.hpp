#pragma once
// Generic `head:key=value,...` spec strings — the shared grammar behind
// workload specs (`stencil2d:nx=8,ny=8`) and machine specs
// (`numa:groups=2x4,gin=1`). One parser, one canonicalization rule and
// one error style, so every registry reports bad specs the same way:
// naming the offending token and, where a key set is known, listing the
// valid keys (see spec_unknown_key_error).

#include <climits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace mbsp {

/// Parsed `head:key=value,...` string. Parameter order is preserved as
/// written; `canonical()` sorts by key.
struct SpecString {
  std::string head;  ///< the part before ':' (family / machine kind)
  std::vector<std::pair<std::string, std::string>> params;

  /// Parses `text`; on failure fills *error (naming the offending token)
  /// and returns nullopt. Empty parameters ("a:,b=1") are skipped;
  /// duplicate keys and items without '=' are errors. `what` names the
  /// head in error messages ("family name", "machine kind").
  static std::optional<SpecString> parse(const std::string& text,
                                         std::string* error = nullptr,
                                         const std::string& what = "name");

  /// nullptr when the key is absent.
  const std::string* find(const std::string& key) const;

  /// `head:params` with parameters sorted by key (just `head` when none).
  std::string canonical() const;
};

/// Typed parameter accessors over a parsed parameter list, with the
/// registries' shared validation style: bad values throw
/// std::invalid_argument naming key and value.
using SpecParamList = std::vector<std::pair<std::string, std::string>>;

/// Integer parameter (default `def` when absent) in [lo, hi];
/// non-numeric, out-of-range, < lo or > hi throws.
int spec_get_int(const SpecParamList& params, const std::string& key, int def,
                 int lo = 1, int hi = INT_MAX);

/// Double parameter (default `def` when absent); non-numeric, non-finite
/// or < lo throws.
double spec_get_double(const SpecParamList& params, const std::string& key,
                       double def, double lo = 0);

/// String parameter, `def` when absent.
std::string spec_get_string(const SpecParamList& params,
                            const std::string& key, std::string def);

/// The shared "unknown parameter" message: names the offending key, the
/// holder ("family 'spmv'" / "machine kind 'numa'") and the sorted valid
/// key list — every registry's spec errors read identically.
std::string spec_unknown_key_error(const std::string& key,
                                   const std::string& holder,
                                   std::vector<std::string> valid_keys);

/// The shared "unknown name" message for registry lookups:
/// `unknown <what> '<name>' (known: a, b, c)`.
std::string spec_unknown_name_error(const std::string& name,
                                    const std::string& what,
                                    const std::vector<std::string>& known);

}  // namespace mbsp
