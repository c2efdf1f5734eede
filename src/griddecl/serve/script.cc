#include "griddecl/serve/script.h"

#include <cstdlib>
#include <string>

namespace griddecl::serve {

namespace {

Status ParseDoubles(const std::string& list, size_t line_no,
                    std::vector<double>* out) {
  size_t pos = 0;
  while (pos <= list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    const std::string piece = list.substr(pos, comma - pos);
    char* end = nullptr;
    const double v = std::strtod(piece.c_str(), &end);
    if (piece.empty() || end != piece.c_str() + piece.size()) {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": bad number '" + piece + "'");
    }
    out->push_back(v);
    pos = comma + 1;
  }
  return Status::Ok();
}

}  // namespace

std::vector<ScriptLine> TokenizeScript(std::string_view text) {
  std::vector<ScriptLine> lines;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    ScriptLine out{line_no, {}};
    size_t i = 0;
    while (i < line.size()) {
      while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
      const size_t start = i;
      while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
      if (i > start) out.tokens.emplace_back(line.substr(start, i - start));
    }
    if (out.tokens.empty() || out.tokens[0][0] == '#') continue;
    lines.push_back(std::move(out));
  }
  return lines;
}

Result<QueryRequest> ParseQueryLine(const ScriptLine& line) {
  const std::vector<std::string>& tokens = line.tokens;
  const std::string where = "line " + std::to_string(line.number);
  if (tokens.size() < 4 || tokens.size() > 5) {
    return Status::InvalidArgument(
        where + ": expected 'query <relation> <lo,..> <hi,..> [deadline_ms]'");
  }
  QueryRequest req;
  req.relation = tokens[1];
  GRIDDECL_RETURN_IF_ERROR(ParseDoubles(tokens[2], line.number, &req.lo));
  GRIDDECL_RETURN_IF_ERROR(ParseDoubles(tokens[3], line.number, &req.hi));
  if (req.lo.size() != req.hi.size()) {
    return Status::InvalidArgument(
        where + ": lo has " + std::to_string(req.lo.size()) +
        " attributes but hi has " + std::to_string(req.hi.size()));
  }
  if (tokens.size() == 5) {
    char* end = nullptr;
    req.deadline_ms = std::strtod(tokens[4].c_str(), &end);
    if (end != tokens[4].c_str() + tokens[4].size() ||
        !(req.deadline_ms > 0.0)) {
      return Status::InvalidArgument(where + ": bad deadline '" + tokens[4] +
                                     "'");
    }
  }
  return req;
}

Result<std::vector<QueryRequest>> ParseServeScript(std::string_view text) {
  std::vector<QueryRequest> requests;
  for (const ScriptLine& line : TokenizeScript(text)) {
    if (line.tokens[0] != "query") {
      return Status::InvalidArgument("line " + std::to_string(line.number) +
                                     ": unknown directive '" +
                                     line.tokens[0] + "' (expected 'query')");
    }
    Result<QueryRequest> req = ParseQueryLine(line);
    if (!req.ok()) return req.status();
    requests.push_back(std::move(req).value());
  }
  return requests;
}

}  // namespace griddecl::serve
