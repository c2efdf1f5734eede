#ifndef GRIDDECL_SERVE_SCRIPT_H_
#define GRIDDECL_SERVE_SCRIPT_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "griddecl/common/status.h"
#include "griddecl/serve/service.h"

/// \file
/// Text format for driving `declctl serve` with a batch of range queries.
///
/// One query per line:
///
///     query <relation> <lo1,lo2,...> <hi1,hi2,...> [deadline_ms]
///
/// `lo`/`hi` are comma-separated per-attribute bounds (no spaces inside a
/// list); the optional trailing number is a per-query deadline in
/// milliseconds. Blank lines and lines starting with `#` are skipped.
///
///     # two-attribute relation, 50 ms deadline on the second query
///     query uniform 0.1,0.2 0.4,0.9
///     query uniform 0.0,0.0 1.0,1.0 50

namespace griddecl::serve {

/// One script line that carries a directive: its 1-based line number and
/// its tokens.
struct ScriptLine {
  size_t number = 0;
  std::vector<std::string> tokens;
};

/// The script tokenizer `declctl serve` and `declctl cluster` share:
/// splits `text` into lines (dropping a trailing '\r') and each line on
/// runs of spaces and tabs. Blank lines and lines whose first token
/// starts with `#` are skipped.
std::vector<ScriptLine> TokenizeScript(std::string_view text);

/// Parses one tokenized `query <relation> <lo,..> <hi,..> [deadline_ms]`
/// line (the caller has matched tokens[0]). Errors are kInvalidArgument
/// naming the line.
Result<QueryRequest> ParseQueryLine(const ScriptLine& line);

/// Parses a serve script into requests, in file order. Fails with
/// kInvalidArgument naming the offending line on any malformed input.
Result<std::vector<QueryRequest>> ParseServeScript(std::string_view text);

}  // namespace griddecl::serve

#endif  // GRIDDECL_SERVE_SCRIPT_H_
