#include "lang/parser.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "lang/lexer.h"

namespace tsq::lang {

namespace {

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<ParsedQuery> Run() {
    ParsedQuery query;
    TSQ_RETURN_IF_ERROR(ExpectKeyword("find"));
    if (PeekKeyword("similar")) {
      Advance();
      TSQ_RETURN_IF_ERROR(ExpectKeyword("to"));
      query.kind = QueryKind::kRange;
      TSQ_RETURN_IF_ERROR(ParseRef(&query));
    } else if (PeekKeyword("pairs")) {
      Advance();
      query.kind = QueryKind::kJoin;
    } else if (Peek().kind == TokenKind::kNumber) {
      query.kind = QueryKind::kKnn;
      if (!TakeCount(1.0, &query.k)) {
        return Error("k must be an integer of at least 1");
      }
      TSQ_RETURN_IF_ERROR(ExpectKeyword("nearest"));
      TSQ_RETURN_IF_ERROR(ExpectKeyword("to"));
      TSQ_RETURN_IF_ERROR(ParseRef(&query));
    } else {
      return Error("expected SIMILAR, PAIRS or a neighbour count after FIND");
    }

    TSQ_RETURN_IF_ERROR(ExpectKeyword("under"));
    TSQ_RETURN_IF_ERROR(ParsePipelines(&query));

    // Threshold and options in any order.
    while (Peek().kind != TokenKind::kEnd) {
      if (PeekKeyword("within")) {
        Advance();
        if (PeekKeyword("distance")) {
          query.threshold = ThresholdKind::kDistance;
        } else if (PeekKeyword("correlation")) {
          query.threshold = ThresholdKind::kCorrelation;
        } else {
          return Error("expected DISTANCE or CORRELATION after WITHIN");
        }
        Advance();
        if (Peek().kind != TokenKind::kNumber) {
          return Error("expected a threshold value");
        }
        query.threshold_value = Peek().number;
        Advance();
      } else if (PeekKeyword("using")) {
        Advance();
        if (PeekKeyword("auto")) {
          query.algorithm = AlgorithmChoice::kAuto;
        } else if (PeekKeyword("mt")) {
          query.algorithm = AlgorithmChoice::kMt;
        } else if (PeekKeyword("st")) {
          query.algorithm = AlgorithmChoice::kSt;
        } else if (PeekKeyword("scan")) {
          query.algorithm = AlgorithmChoice::kScan;
        } else {
          return Error("expected AUTO, MT, ST or SCAN after USING");
        }
        Advance();
      } else if (PeekKeyword("apply")) {
        Advance();
        if (PeekKeyword("both")) {
          query.apply = ApplyChoice::kBoth;
        } else if (PeekKeyword("data")) {
          query.apply = ApplyChoice::kData;
        } else {
          return Error("expected BOTH or DATA after APPLY");
        }
        Advance();
      } else if (PeekKeyword("groups") || PeekKeyword("per_mbr")) {
        query.grouping = PeekKeyword("groups") ? GroupingChoice::kGroups
                                               : GroupingChoice::kPerMbr;
        Advance();
        if (!TakeCount(1.0, &query.grouping_value)) {
          return Error("expected a positive integer count");
        }
      } else if (PeekKeyword("clustered")) {
        query.grouping = GroupingChoice::kClustered;
        Advance();
      } else if (PeekKeyword("ordered")) {
        query.ordered = true;
        Advance();
      } else {
        return Error("unexpected trailing input");
      }
    }

    if (query.kind != QueryKind::kKnn &&
        query.threshold == ThresholdKind::kNone) {
      return Error("range and join queries need a WITHIN threshold");
    }
    return query;
  }

 private:
  const Token& Peek() const { return tokens_[index_]; }
  void Advance() { ++index_; }

  bool PeekKeyword(std::string_view word) const {
    return Peek().kind == TokenKind::kIdentifier && Peek().text == word;
  }

  Status ExpectKeyword(std::string_view word) {
    if (!PeekKeyword(word)) {
      std::ostringstream msg;
      msg << "expected '" << word << "'";
      return Error(msg.str()).status();
    }
    Advance();
    return Status::Ok();
  }

  /// Consumes a number token holding an integer in [min, SIZE_MAX] into
  /// `*out`; false (nothing consumed) for anything else. A double that is
  /// fractional, negative, NaN or past SIZE_MAX has no size_t value, and
  /// casting one is undefined.
  bool TakeCount(double min, std::size_t* out) {
    const double value = Peek().number;
    if (Peek().kind != TokenKind::kNumber || !(value >= min) ||
        value != std::floor(value) ||
        value >= std::ldexp(1.0, std::numeric_limits<std::size_t>::digits)) {
      return false;
    }
    *out = static_cast<std::size_t>(value);
    Advance();
    return true;
  }

  Result<ParsedQuery> Error(const std::string& what) const {
    std::ostringstream msg;
    msg << what << " (at position " << Peek().position << ", near "
        << TokenKindName(Peek().kind)
        << (Peek().text.empty() ? "" : " '" + Peek().text + "'") << ")";
    return Status::InvalidArgument(msg.str());
  }

  Status ParseRef(ParsedQuery* query) {
    TSQ_RETURN_IF_ERROR(ExpectKeyword("series"));
    if (!TakeCount(0.0, &query->series_id)) {
      return Error("expected a series id").status();
    }
    return Status::Ok();
  }

  Status ParsePipelines(ParsedQuery* query) {
    while (true) {
      Pipeline pipeline;
      TSQ_RETURN_IF_ERROR(ParseFactor(&pipeline));
      while (PeekKeyword("then")) {
        Advance();
        TSQ_RETURN_IF_ERROR(ParseFactor(&pipeline));
      }
      query->pipelines.push_back(std::move(pipeline));
      if (Peek().kind == TokenKind::kComma) {
        Advance();
        continue;
      }
      break;
    }
    return Status::Ok();
  }

  Status ParseFactor(Pipeline* pipeline) {
    if (Peek().kind != TokenKind::kIdentifier) {
      return Error("expected a transformation name").status();
    }
    Factor factor;
    factor.name = Peek().text;
    factor.position = Peek().position;
    Advance();
    if (Peek().kind == TokenKind::kLParen) {
      Advance();
      while (true) {
        Arg arg;
        if (Peek().kind != TokenKind::kNumber) {
          return Error("expected a numeric argument").status();
        }
        arg.lo = arg.hi = Peek().number;
        Advance();
        if (Peek().kind == TokenKind::kDotDot) {
          Advance();
          if (Peek().kind != TokenKind::kNumber) {
            return Error("expected a range upper bound").status();
          }
          arg.hi = Peek().number;
          arg.is_range = true;
          Advance();
          if (Peek().kind == TokenKind::kColon) {
            Advance();
            if (Peek().kind != TokenKind::kNumber || Peek().number <= 0.0) {
              return Error("expected a positive range step").status();
            }
            arg.step = Peek().number;
            Advance();
          }
          if (arg.hi < arg.lo) {
            return Error("range upper bound below lower bound").status();
          }
        }
        factor.args.push_back(arg);
        if (Peek().kind == TokenKind::kComma) {
          Advance();
          continue;
        }
        break;
      }
      if (Peek().kind != TokenKind::kRParen) {
        return Error("expected ')'").status();
      }
      Advance();
    }
    pipeline->push_back(std::move(factor));
    return Status::Ok();
  }

  std::vector<Token> tokens_;
  std::size_t index_ = 0;
};

}  // namespace

Result<ParsedQuery> Parse(std::string_view input) {
  Result<std::vector<Token>> tokens = Tokenize(input);
  if (!tokens.ok()) return tokens.status();
  return Parser(std::move(*tokens)).Run();
}

}  // namespace tsq::lang
