"""SQL lexer for the reproduction dialect.

Case-insensitive keywords, identifiers, integer/float literals, quoted
strings, ``DATE '...'`` literals (handled in the parser), and the usual
punctuation.  Comments: ``-- ...`` to end of line.
"""

from __future__ import annotations

from dataclasses import dataclass

KEYWORDS = {
    "select", "from", "where", "group", "by", "having", "order", "limit",
    "as", "and", "or", "not", "between", "in", "join", "inner", "semi",
    "anti", "on", "case", "when", "then", "else", "end", "asc", "desc",
    "sum", "avg", "min", "max", "count", "date", "with", "extract",
    "year", "interval", "day", "month", "exists", "distinct",
}

PUNCT = (
    "<=", ">=", "<>", "!=", "=", "<", ">", "(", ")", ",", "+", "-", "*",
    "/", ".", ";",
)


class SQLSyntaxError(ValueError):
    """Lexing or parsing failure with position context."""


@dataclass(frozen=True)
class Token:
    kind: str       # 'kw' | 'ident' | 'int' | 'float' | 'string' | 'punct' | 'eof'
    value: str
    position: int

    def __repr__(self) -> str:
        return f"{self.kind}:{self.value!r}"


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("--", i):
            end = text.find("\n", i)
            i = n if end < 0 else end + 1
            continue
        if ch == "'":
            end = text.find("'", i + 1)
            if end < 0:
                raise SQLSyntaxError(f"unterminated string at offset {i}")
            tokens.append(Token("string", text[i + 1 : end], i))
            i = end + 1
            continue
        if ch.isdigit() or (
            ch == "." and i + 1 < n and text[i + 1].isdigit()
        ):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    # '1.' followed by non-digit is int + '.' punct
                    if j + 1 >= n or not text[j + 1].isdigit():
                        break
                    seen_dot = True
                j += 1
            word = text[i:j]
            tokens.append(Token("float" if "." in word else "int", word, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            lowered = word.lower()
            kind = "kw" if lowered in KEYWORDS else "ident"
            tokens.append(Token(kind, lowered if kind == "kw" else word, i))
            i = j
            continue
        for punct in PUNCT:
            if text.startswith(punct, i):
                tokens.append(Token("punct", punct, i))
                i += len(punct)
                break
        else:
            raise SQLSyntaxError(f"unexpected character {ch!r} at offset {i}")
    tokens.append(Token("eof", "", n))
    return tokens
