#include "src/model/spec.hpp"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace mbsp {

namespace {

void fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

}  // namespace

std::optional<SpecString> SpecString::parse(const std::string& text,
                                            std::string* error,
                                            const std::string& what) {
  SpecString spec;
  const std::size_t colon = text.find(':');
  spec.head = text.substr(0, colon);
  if (spec.head.empty()) {
    fail(error, "empty " + what + " in spec '" + text + "'");
    return std::nullopt;
  }
  if (colon == std::string::npos) return spec;
  std::size_t start = colon + 1;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::size_t end = comma == std::string::npos ? text.size() : comma;
    const std::string item = text.substr(start, end - start);
    if (!item.empty()) {
      const std::size_t eq = item.find('=');
      if (eq == std::string::npos || eq == 0) {
        fail(error, "bad parameter '" + item + "' (expected key=value)");
        return std::nullopt;
      }
      const std::string key = item.substr(0, eq);
      if (spec.find(key) != nullptr) {
        fail(error, "duplicate parameter '" + key + "'");
        return std::nullopt;
      }
      spec.params.emplace_back(key, item.substr(eq + 1));
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return spec;
}

namespace {

const std::string* find_param(const SpecParamList& params,
                              const std::string& key) {
  for (const auto& [k, v] : params) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string joined(const std::vector<std::string>& names) {
  std::string out;
  for (std::size_t i = 0; i < names.size(); ++i) {
    out += (i == 0 ? "" : ", ") + names[i];
  }
  return out;
}

}  // namespace

const std::string* SpecString::find(const std::string& key) const {
  return find_param(params, key);
}

std::string SpecString::canonical() const {
  if (params.empty()) return head;
  auto sorted = params;
  std::sort(sorted.begin(), sorted.end());
  std::string out = head + ":";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) out += ',';
    out += sorted[i].first + "=" + sorted[i].second;
  }
  return out;
}

int spec_get_int(const SpecParamList& params, const std::string& key, int def,
                 int lo, int hi) {
  const std::string* value = find_param(params, key);
  if (value == nullptr) return def;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(value->c_str(), &end, 10);
  if (end == value->c_str() || *end != '\0') {
    throw std::invalid_argument("parameter '" + key + "': '" + *value +
                                "' is not an integer");
  }
  if (errno == ERANGE || parsed > INT_MAX) {
    throw std::invalid_argument("parameter '" + key + "': " + *value +
                                " is out of range");
  }
  if (parsed < lo) {
    throw std::invalid_argument("parameter '" + key + "': " + *value +
                                " is below the minimum " + std::to_string(lo));
  }
  if (parsed > hi) {
    throw std::invalid_argument("parameter '" + key + "': " + *value +
                                " is above the maximum " + std::to_string(hi));
  }
  return static_cast<int>(parsed);
}

double spec_get_double(const SpecParamList& params, const std::string& key,
                       double def, double lo) {
  const std::string* value = find_param(params, key);
  if (value == nullptr) return def;
  char* end = nullptr;
  const double parsed = std::strtod(value->c_str(), &end);
  if (end == value->c_str() || *end != '\0' || !std::isfinite(parsed)) {
    throw std::invalid_argument("parameter '" + key + "': '" + *value +
                                "' is not a finite number");
  }
  if (parsed < lo) {
    throw std::invalid_argument("parameter '" + key + "': " + *value +
                                " is below the minimum " + std::to_string(lo));
  }
  return parsed;
}

std::string spec_get_string(const SpecParamList& params,
                            const std::string& key, std::string def) {
  const std::string* value = find_param(params, key);
  return value == nullptr ? std::move(def) : *value;
}

std::string spec_unknown_key_error(const std::string& key,
                                   const std::string& holder,
                                   std::vector<std::string> valid_keys) {
  std::sort(valid_keys.begin(), valid_keys.end());
  return "unknown parameter '" + key + "' for " + holder + " (valid: " +
         joined(valid_keys) + ")";
}

std::string spec_unknown_name_error(const std::string& name,
                                    const std::string& what,
                                    const std::vector<std::string>& known) {
  return "unknown " + what + " '" + name + "' (known: " + joined(known) + ")";
}

}  // namespace mbsp
