#include "griddecl/cluster/script.h"

#include <cstdlib>
#include <utility>

#include "griddecl/serve/script.h"

namespace griddecl::cluster {

namespace {

Result<uint32_t> ParseU32(const std::string& token, size_t line_no,
                          const char* what) {
  char* end = nullptr;
  const unsigned long v = std::strtoul(token.c_str(), &end, 10);
  if (token.empty() || end != token.c_str() + token.size() ||
      v > 0xffffffffUL) {
    return Status::InvalidArgument("line " + std::to_string(line_no) +
                                   ": bad " + what + " '" + token + "'");
  }
  return static_cast<uint32_t>(v);
}

Result<double> ParseNonNegative(const std::string& token, size_t line_no,
                                const char* what) {
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || v < 0.0) {
    return Status::InvalidArgument("line " + std::to_string(line_no) +
                                   ": bad " + what + " '" + token + "'");
  }
  return v;
}

}  // namespace

Result<std::vector<ClusterCommand>> ParseClusterScript(std::string_view text) {
  std::vector<ClusterCommand> commands;
  for (const serve::ScriptLine& line : serve::TokenizeScript(text)) {
    const std::vector<std::string>& tokens = line.tokens;
    const size_t line_no = line.number;
    ClusterCommand cmd;
    if (tokens[0] == "query") {
      auto query = serve::ParseQueryLine(line);
      if (!query.ok()) return query.status();
      cmd.kind = ClusterCommand::Kind::kQuery;
      cmd.query = std::move(query).value();
    } else if (tokens[0] == "kill-node" || tokens[0] == "revive-node") {
      if (tokens.size() != 2) {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": expected '" + tokens[0] +
                                       " <node>'");
      }
      auto node = ParseU32(tokens[1], line_no, "node");
      if (!node.ok()) return node.status();
      cmd.kind = tokens[0] == "kill-node" ? ClusterCommand::Kind::kKillNode
                                          : ClusterCommand::Kind::kReviveNode;
      cmd.node = node.value();
    } else if (tokens[0] == "kill-zone" || tokens[0] == "revive-zone") {
      if (tokens.size() != 2) {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": expected '" + tokens[0] +
                                       " <zone>'");
      }
      auto zone = ParseU32(tokens[1], line_no, "zone");
      if (!zone.ok()) return zone.status();
      cmd.kind = tokens[0] == "kill-zone" ? ClusterCommand::Kind::kKillZone
                                          : ClusterCommand::Kind::kReviveZone;
      cmd.zone = zone.value();
    } else if (tokens[0] == "advance-ms") {
      if (tokens.size() != 2) {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": expected 'advance-ms <ms>'");
      }
      auto ms = ParseNonNegative(tokens[1], line_no, "time");
      if (!ms.ok()) return ms.status();
      cmd.advance_ms = ms.value();
      cmd.kind = ClusterCommand::Kind::kAdvance;
    } else if (tokens[0] == "migrate") {
      if (tokens.size() != 3) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_no) +
            ": expected 'migrate <method> <num_disks>'");
      }
      auto disks = ParseU32(tokens[2], line_no, "disk count");
      if (!disks.ok()) return disks.status();
      cmd.kind = ClusterCommand::Kind::kMigrate;
      cmd.migrate_method = tokens[1];
      cmd.migrate_disks = disks.value();
    } else if (tokens[0] == "repair") {
      if (tokens.size() > 2) {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": expected 'repair [bytes_per_sec]'");
      }
      cmd.kind = ClusterCommand::Kind::kRepair;
      if (tokens.size() == 2) {
        auto rate = ParseNonNegative(tokens[1], line_no, "rate");
        if (!rate.ok()) return rate.status();
        cmd.repair_bytes_per_sec = rate.value();
      }
    } else if (tokens[0] == "add-node") {
      if (tokens.size() != 3) {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": expected 'add-node <rack> <zone>'");
      }
      auto rack = ParseU32(tokens[1], line_no, "rack");
      if (!rack.ok()) return rack.status();
      auto zone = ParseU32(tokens[2], line_no, "zone");
      if (!zone.ok()) return zone.status();
      cmd.kind = ClusterCommand::Kind::kAddNode;
      cmd.add_rack = rack.value();
      cmd.add_zone = zone.value();
    } else if (tokens[0] == "remove-node") {
      if (tokens.size() != 2) {
        return Status::InvalidArgument("line " + std::to_string(line_no) +
                                       ": expected 'remove-node <node>'");
      }
      auto node = ParseU32(tokens[1], line_no, "node");
      if (!node.ok()) return node.status();
      cmd.kind = ClusterCommand::Kind::kRemoveNode;
      cmd.node = node.value();
    } else {
      return Status::InvalidArgument("line " + std::to_string(line_no) +
                                     ": unknown directive '" + tokens[0] +
                                     "'");
    }
    commands.push_back(std::move(cmd));
  }
  return commands;
}

}  // namespace griddecl::cluster
