// Reply comparison for the bit-identity checks (the serving e2e suite and
// bench_serve): a failed check names the first line that diverged instead
// of only counting mismatches.

#ifndef PVCDB_UTIL_TEXT_DIFF_H_
#define PVCDB_UTIL_TEXT_DIFF_H_

#include <sstream>
#include <string>

namespace pvcdb {

/// Empty when the texts are equal, else the first line where they differ
/// (perfbench's FirstDifference wording).
inline std::string FirstDifference(const std::string& expected,
                                   const std::string& actual) {
  if (expected == actual) return std::string();
  std::istringstream e(expected);
  std::istringstream a(actual);
  std::string el;
  std::string al;
  for (size_t line = 1;; ++line) {
    bool has_e = static_cast<bool>(std::getline(e, el));
    bool has_a = static_cast<bool>(std::getline(a, al));
    if (!has_e && !has_a) {
      return "line " + std::to_string(line) +
             ": texts differ only in their final newline";
    }
    if (has_e != has_a || el != al) {
      return "line " + std::to_string(line) + ": expected '" +
             (has_e ? el : std::string("<end of text>")) + "' / actual '" +
             (has_a ? al : std::string("<end of text>")) + "'";
    }
  }
}

}  // namespace pvcdb

#endif  // PVCDB_UTIL_TEXT_DIFF_H_
