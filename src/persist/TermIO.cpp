//===- persist/TermIO.cpp - Textual round-trip for smt::Term --------------===//

#include "persist/TermIO.h"

#include <algorithm>
#include <cctype>
#include <cstdint>

using namespace seqver;
using namespace seqver::persist;
using seqver::smt::LinSum;
using seqver::smt::Sort;
using seqver::smt::Term;
using seqver::smt::TermManager;

std::string seqver::persist::printTerm(const TermManager &TM, Term T) {
  return TM.str(T);
}

namespace {

enum class Tok : uint8_t {
  LParen,
  RParen,
  Bang,
  AndAnd,
  OrOr,
  IffOp, // <=>
  LeOp,  // <=
  EqOp,  // ==
  Plus,
  Minus,
  Star,
  Number,
  Ident,
  End,
};

struct Token {
  Tok Kind = Tok::End;
  uint64_t Magnitude = 0; // Number: unsigned magnitude (sign is contextual)
  std::string Text;       // Ident
  size_t Offset = 0;      // byte offset, for error messages
};

bool isIdentStart(char C) {
  return std::isalpha(static_cast<unsigned char>(C)) || C == '_';
}

// Covers every name the verifier manufactures: plain program variables
// and wp-chain havoc symbols (`havoc!3`, `havoc!a2!0`); SSA-style copies
// (`x@2`) that records from older builds may hold lex too. A leading '!'
// is never part of a name, so negation stays unambiguous.
bool isIdentCont(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
         C == '!' || C == '@' || C == '.' || C == '#' || C == '$';
}

class Lexer {
public:
  Lexer(const std::string &Text) : Text(Text) {}

  /// Fills Out; returns false (with Err set) on an illegal character or
  /// numeric overflow.
  bool run(std::vector<Token> &Out, std::string &Err) {
    size_t I = 0, N = Text.size();
    while (I < N) {
      char C = Text[I];
      if (C == ' ' || C == '\t') {
        ++I;
        continue;
      }
      Token T;
      T.Offset = I;
      switch (C) {
      case '(':
        T.Kind = Tok::LParen;
        ++I;
        break;
      case ')':
        T.Kind = Tok::RParen;
        ++I;
        break;
      case '!':
        T.Kind = Tok::Bang;
        ++I;
        break;
      case '+':
        T.Kind = Tok::Plus;
        ++I;
        break;
      case '-':
        T.Kind = Tok::Minus;
        ++I;
        break;
      case '*':
        T.Kind = Tok::Star;
        ++I;
        break;
      case '&':
        if (I + 1 >= N || Text[I + 1] != '&')
          return fail(Err, I, "expected '&&'");
        T.Kind = Tok::AndAnd;
        I += 2;
        break;
      case '|':
        if (I + 1 >= N || Text[I + 1] != '|')
          return fail(Err, I, "expected '||'");
        T.Kind = Tok::OrOr;
        I += 2;
        break;
      case '=':
        if (I + 1 >= N || Text[I + 1] != '=')
          return fail(Err, I, "expected '=='");
        T.Kind = Tok::EqOp;
        I += 2;
        break;
      case '<':
        if (I + 1 >= N || Text[I + 1] != '=')
          return fail(Err, I, "expected '<=' or '<=>'");
        if (I + 2 < N && Text[I + 2] == '>') {
          T.Kind = Tok::IffOp;
          I += 3;
        } else {
          T.Kind = Tok::LeOp;
          I += 2;
        }
        break;
      default:
        if (C >= '0' && C <= '9') {
          T.Kind = Tok::Number;
          uint64_t Mag = 0;
          while (I < N && Text[I] >= '0' && Text[I] <= '9') {
            uint64_t Digit = static_cast<uint64_t>(Text[I] - '0');
            if (Mag > (UINT64_MAX - Digit) / 10)
              return fail(Err, I, "integer literal overflows 64 bits");
            Mag = Mag * 10 + Digit;
            ++I;
          }
          T.Magnitude = Mag;
        } else if (isIdentStart(C)) {
          T.Kind = Tok::Ident;
          size_t Start = I;
          while (I < N && isIdentCont(Text[I]))
            ++I;
          T.Text = Text.substr(Start, I - Start);
        } else {
          return fail(Err, I, "unexpected character");
        }
      }
      Out.push_back(std::move(T));
    }
    Token EndTok;
    EndTok.Offset = N;
    Out.push_back(EndTok);
    return true;
  }

private:
  bool fail(std::string &Err, size_t At, const char *Msg) {
    Err = std::string(Msg) + " at offset " + std::to_string(At);
    return false;
  }

  const std::string &Text;
};

class Parser {
public:
  Parser(TermManager &TM, const ParseOptions &Opts, std::vector<Token> Toks)
      : TM(TM), Opts(Opts), Toks(std::move(Toks)) {}

  ParseResult run() {
    Term F = formula();
    if (!Err.empty())
      return error();
    if (peek().Kind != Tok::End) {
      setErr("trailing input");
      return error();
    }
    ParseResult R;
    R.Value = F;
    return R;
  }

private:
  const Token &peek() const { return Toks[Pos]; }
  const Token &advance() { return Toks[Pos++]; }
  bool at(Tok K) const { return peek().Kind == K; }
  bool accept(Tok K) {
    if (!at(K))
      return false;
    ++Pos;
    return true;
  }

  void setErr(const std::string &Msg) {
    if (Err.empty())
      Err = Msg + " at offset " + std::to_string(peek().Offset);
  }
  ParseResult error() const {
    ParseResult R;
    R.Error = Err;
    return R;
  }

  /// Applies the unknown-variable remapping, then interns the variable,
  /// checking (never asserting) sort consistency. The prefix is applied
  /// idempotently so write-back/reload cycles do not stack `cache!cache!`
  /// chains: an already-prefixed name is by construction run-private and
  /// can never collide with a fresh symbol of the reading process.
  Term varOfSort(const std::string &Name, Sort S) {
    std::string Mapped = Name;
    if (Opts.KnownVars &&
        !std::binary_search(Opts.KnownVars->begin(), Opts.KnownVars->end(),
                            Name) &&
        !Name.starts_with(Opts.UnknownPrefix))
      Mapped = Opts.UnknownPrefix + Name;
    if (Term Existing = TM.lookupVar(Mapped)) {
      if (Existing->sort() != S) {
        setErr("variable '" + Mapped + "' used at two sorts");
        return nullptr;
      }
      return Existing;
    }
    return TM.mkVar(Mapped, S);
  }

  /// Converts an unsigned magnitude + contextual sign into int64. Rejects
  /// magnitudes above INT64_MAX even when negated: a lone INT64_MIN
  /// coefficient would reach gcd normalization as a negative gcd, and the
  /// parser must never feed the term layer input it asserts on.
  bool toSigned(uint64_t Mag, bool Negative, int64_t &Out) {
    if (Mag > static_cast<uint64_t>(INT64_MAX)) {
      setErr("integer literal overflows 64 bits");
      return false;
    }
    Out = Negative ? -static_cast<int64_t>(Mag) : static_cast<int64_t>(Mag);
    return true;
  }

  /// One summand after its sign: `magnitude '*' intvar | magnitude |
  /// intvar`. Accumulates into Acc.
  bool sumTerm(bool Negative, LinSum &Acc) {
    if (at(Tok::Number)) {
      uint64_t Mag = advance().Magnitude;
      int64_t Value;
      if (!toSigned(Mag, Negative, Value))
        return false;
      if (accept(Tok::Star)) {
        if (!at(Tok::Ident)) {
          setErr("expected variable after '*'");
          return false;
        }
        Term V = varOfSort(advance().Text, Sort::Int);
        if (!V)
          return false;
        Acc = TermManager::sumAdd(
            Acc, TermManager::sumScale(TM.sumOfVar(V), Value));
      } else {
        Acc = TermManager::sumAdd(Acc, TM.sumOfConst(Value));
      }
      return true;
    }
    if (at(Tok::Ident)) {
      Term V = varOfSort(advance().Text, Sort::Int);
      if (!V)
        return false;
      Acc = TermManager::sumAdd(
          Acc, TermManager::sumScale(TM.sumOfVar(V), Negative ? -1 : 1));
      return true;
    }
    setErr("expected summand");
    return false;
  }

  /// The rest of a sum after its first summand, then the relation and the
  /// literal 0 — i.e. `(('+'|'-') term)* ('<='|'==') '0'`. The caller
  /// still owns the closing ')'.
  Term atomTail(LinSum Acc) {
    while (at(Tok::Plus) || at(Tok::Minus)) {
      bool Negative = advance().Kind == Tok::Minus;
      if (!sumTerm(Negative, Acc))
        return nullptr;
    }
    bool IsLe;
    if (accept(Tok::LeOp))
      IsLe = true;
    else if (accept(Tok::EqOp))
      IsLe = false;
    else {
      setErr("expected '<=' or '=='");
      return nullptr;
    }
    if (!at(Tok::Number) || peek().Magnitude != 0) {
      setErr("expected literal 0 on the right-hand side");
      return nullptr;
    }
    advance();
    return IsLe ? TM.mkLeZero(Acc) : TM.mkEqZero(Acc);
  }

  /// Junction continuation after the first child: `('&&' f)+`, `('||' f)+`
  /// or `'<=>' f`. The caller still owns the closing ')'.
  Term junctionTail(Term First) {
    if (at(Tok::AndAnd) || at(Tok::OrOr)) {
      Tok Op = peek().Kind;
      std::vector<Term> Args{First};
      while (accept(Op)) {
        Term Child = formula();
        if (!Child)
          return nullptr;
        Args.push_back(Child);
      }
      return Op == Tok::AndAnd ? TM.mkAnd(std::move(Args))
                               : TM.mkOr(std::move(Args));
    }
    if (accept(Tok::IffOp)) {
      Term Second = formula();
      if (!Second)
        return nullptr;
      return TM.mkIff(First, Second);
    }
    setErr("expected '&&', '||' or '<=>'");
    return nullptr;
  }

  /// Everything between '(' and ')'. The first token disambiguates the
  /// atom and junction productions; a leading identifier needs one token
  /// of lookahead (`x <= ...` starts a sum, `x && ...` a conjunction).
  Term parenInner() {
    if (at(Tok::Minus) || at(Tok::Number)) {
      bool Negative = accept(Tok::Minus);
      LinSum Acc;
      if (!sumTerm(Negative, Acc))
        return nullptr;
      return atomTail(std::move(Acc));
    }
    if (at(Tok::Ident) && peek().Text != "true" && peek().Text != "false") {
      std::string Name = advance().Text;
      switch (peek().Kind) {
      case Tok::LeOp:
      case Tok::EqOp:
      case Tok::Plus:
      case Tok::Minus: {
        Term V = varOfSort(Name, Sort::Int);
        if (!V)
          return nullptr;
        return atomTail(TM.sumOfVar(V));
      }
      case Tok::AndAnd:
      case Tok::OrOr:
      case Tok::IffOp: {
        Term V = varOfSort(Name, Sort::Bool);
        if (!V)
          return nullptr;
        return junctionTail(V);
      }
      default:
        setErr("expected operator after variable");
        return nullptr;
      }
    }
    Term First = formula();
    if (!First)
      return nullptr;
    return junctionTail(First);
  }

  Term formula() {
    if (accept(Tok::Bang)) {
      Term Child = formula();
      return Child ? TM.mkNot(Child) : nullptr;
    }
    if (accept(Tok::LParen)) {
      Term Inner = parenInner();
      if (!Inner)
        return nullptr;
      if (!accept(Tok::RParen)) {
        setErr("expected ')'");
        return nullptr;
      }
      return Inner;
    }
    if (at(Tok::Ident)) {
      const std::string &Name = peek().Text;
      if (Name == "true" || Name == "false") {
        bool Value = Name == "true";
        advance();
        return TM.mkBool(Value);
      }
      advance();
      return varOfSort(Name, Sort::Bool);
    }
    setErr("expected formula");
    return nullptr;
  }

  TermManager &TM;
  const ParseOptions &Opts;
  std::vector<Token> Toks;
  size_t Pos = 0;
  std::string Err;
};

} // namespace

ParseResult seqver::persist::parseTerm(TermManager &TM,
                                       const std::string &Text,
                                       const ParseOptions &Opts) {
  std::vector<Token> Toks;
  ParseResult R;
  Lexer Lex(Text);
  if (!Lex.run(Toks, R.Error))
    return R;
  return Parser(TM, Opts, std::move(Toks)).run();
}
