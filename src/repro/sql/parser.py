"""Recursive-descent parser for the reproduction SQL dialect."""

from __future__ import annotations

from . import ast
from .lexer import SQLSyntaxError, Token, tokenize
from ..tpch.schema import date_add_days, date_literal


class Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        # a second ``eof``: ``peek(1)`` at the first never runs off the end
        self.tokens.append(self.tokens[-1])
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def accept(self, kind: str, value: str | None = None) -> Token | None:
        token = self.tokens[self.pos]
        if token.kind == kind and (value is None or token.value == value):
            return self.advance()
        return None

    def expect(self, kind: str, value: str | None = None) -> Token:
        token = self.accept(kind, value)
        if token is None:
            got = self.peek()
            want = value or kind
            raise SQLSyntaxError(
                f"expected {want!r}, got {got.value!r} at offset "
                f"{got.position}"
            )
        return token

    def at_kw(self, *words: str) -> bool:
        token = self.peek()
        return token.kind == "kw" and token.value in words

    # -- entry points ---------------------------------------------------------

    def parse_query(self) -> ast.Query:
        query = ast.Query()
        if self.accept("kw", "with"):
            while True:
                name = self.expect("ident").value
                self.expect("kw", "as")
                self.expect("punct", "(")
                query.ctes.append((name, self.parse_select()))
                self.expect("punct", ")")
                if not self.accept("punct", ","):
                    break
        query.select = self.parse_select()
        self.accept("punct", ";")
        self.expect("eof")
        return query

    def parse_select(self) -> ast.Select:
        self.expect("kw", "select")
        select = ast.Select()
        while True:
            expr = self.parse_expr()
            alias = None
            if self.accept("kw", "as"):
                alias = self.expect("ident").value
            elif self.peek().kind == "ident":
                alias = self.advance().value
            select.items.append(ast.SelectItem(expr, alias))
            if not self.accept("punct", ","):
                break
        self.expect("kw", "from")
        select.base = self.parse_from_item()
        while True:
            kind = None
            if self.accept("kw", "semi"):
                kind = "semi"
            elif self.accept("kw", "anti"):
                kind = "anti"
            elif self.at_kw("inner"):
                self.advance()
                kind = "inner"
            elif self.at_kw("join"):
                kind = "inner"
            if kind is None:
                break
            self.expect("kw", "join")
            item = self.parse_from_item()
            self.expect("kw", "on")
            condition = self.parse_expr()
            select.joins.append(ast.Join(kind, item, condition))
        if self.accept("punct", ","):
            got = self.peek()
            raise SQLSyntaxError(
                "comma joins are not part of this dialect; use explicit "
                f"JOIN ... ON (at offset {got.position})"
            )
        if self.accept("kw", "where"):
            select.where = self.parse_expr()
        if self.accept("kw", "group"):
            self.expect("kw", "by")
            while True:
                select.group_by.append(self.parse_expr())
                if not self.accept("punct", ","):
                    break
        if self.accept("kw", "having"):
            select.having = self.parse_expr()
        if self.accept("kw", "order"):
            self.expect("kw", "by")
            expr = self.parse_expr()
            descending = False
            if self.accept("kw", "desc"):
                descending = True
            else:
                self.accept("kw", "asc")
            if self.accept("punct", ","):
                raise SQLSyntaxError(
                    "multi-column sorting is not supported (paper App. A)"
                )
            select.order_by = ast.OrderSpec(expr, descending)
        if self.accept("kw", "limit"):
            select.limit = int(self.expect("int").value)
        return select

    def parse_from_item(self) -> ast.FromItem:
        if self.accept("punct", "("):
            sub = self.parse_select()
            self.expect("punct", ")")
            alias = self.expect("ident").value
            return ast.SubqueryRef(sub, alias)
        table = self.expect("ident").value
        alias = table
        if self.peek().kind == "ident":
            alias = self.advance().value
        return ast.TableRef(table, alias)

    # -- expressions (precedence climbing) ------------------------------------

    def parse_expr(self) -> ast.Expr:
        return self.parse_or()

    def parse_or(self) -> ast.Expr:
        left = self.parse_and()
        while self.accept("kw", "or"):
            left = ast.BinOp("or", left, self.parse_and())
        return left

    def parse_and(self) -> ast.Expr:
        left = self.parse_not()
        while self.accept("kw", "and"):
            left = ast.BinOp("and", left, self.parse_not())
        return left

    def parse_not(self) -> ast.Expr:
        if self.accept("kw", "not"):
            return ast.Not(self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> ast.Expr:
        left = self.parse_additive()
        token = self.peek()
        if token.kind == "punct" and token.value in (
            "=", "<>", "!=", "<", "<=", ">", ">=",
        ):
            self.advance()
            op = {"=": "eq", "<>": "ne", "!=": "ne", "<": "lt", "<=": "le",
                  ">": "gt", ">=": "ge"}[token.value]
            return ast.BinOp(op, left, self.parse_additive())
        negated = bool(self.accept("kw", "not"))
        if self.accept("kw", "between"):
            low = self.parse_additive()
            self.expect("kw", "and")
            high = self.parse_additive()
            return ast.Between(left, low, high, negated)
        if self.accept("kw", "in"):
            self.expect("punct", "(")
            items = [self.parse_additive()]
            while self.accept("punct", ","):
                items.append(self.parse_additive())
            self.expect("punct", ")")
            return ast.InList(left, tuple(items), negated)
        if negated:
            raise SQLSyntaxError(
                f"dangling NOT near offset {self.peek().position}"
            )
        return left

    def parse_additive(self) -> ast.Expr:
        left = self.parse_multiplicative()
        while True:
            if self.accept("punct", "+"):
                left = ast.BinOp("add", left, self.parse_multiplicative())
            elif self.accept("punct", "-"):
                left = ast.BinOp("sub", left, self.parse_multiplicative())
            else:
                return left

    def parse_multiplicative(self) -> ast.Expr:
        left = self.parse_primary()
        while True:
            if self.accept("punct", "*"):
                left = ast.BinOp("mul", left, self.parse_primary())
            elif self.accept("punct", "/"):
                left = ast.BinOp("div", left, self.parse_primary())
            else:
                return left

    def parse_primary(self) -> ast.Expr:
        token = self.peek()
        if self.accept("punct", "-"):
            return ast.Neg(self.parse_primary())
        if self.accept("punct", "("):
            if self.at_kw("select"):
                sub = self.parse_select()
                self.expect("punct", ")")
                return ast.ScalarSubquery(sub)
            expr = self.parse_expr()
            self.expect("punct", ")")
            return expr
        if token.kind == "int":
            self.advance()
            return ast.Literal(int(token.value))
        if token.kind == "float":
            self.advance()
            return ast.Literal(float(token.value))
        if token.kind == "string":
            self.advance()
            return ast.Literal(token.value)
        if self.accept("kw", "date"):
            literal = self.expect("string")
            try:
                return self._maybe_interval(date_literal(literal.value))
            except SQLSyntaxError:
                raise
            except (ValueError, OverflowError):
                raise SQLSyntaxError(
                    f"bad date literal {literal.value!r} at offset "
                    f"{literal.position}"
                ) from None
        if self.accept("kw", "case"):
            self.expect("kw", "when")
            condition = self.parse_expr()
            self.expect("kw", "then")
            then = self.parse_expr()
            otherwise = ast.Literal(0)
            if self.accept("kw", "else"):
                otherwise = self.parse_expr()
            self.expect("kw", "end")
            return ast.Case(condition, then, otherwise)
        if self.accept("kw", "extract"):
            self.expect("punct", "(")
            self.expect("kw", "year")
            self.expect("kw", "from")
            operand = self.parse_expr()
            self.expect("punct", ")")
            return ast.ExtractYear(operand)
        for agg in ("sum", "avg", "min", "max", "count"):
            if self.accept("kw", agg):
                self.expect("punct", "(")
                if agg == "count" and self.accept("punct", "*"):
                    self.expect("punct", ")")
                    return ast.Agg("count", None)
                argument = self.parse_expr()
                self.expect("punct", ")")
                return ast.Agg(agg, argument)
        if token.kind == "ident":
            self.advance()
            if self.accept("punct", "."):
                name = self.expect("ident").value
                return ast.Column(token.value, name)
            return ast.Column(None, token.value)
        raise SQLSyntaxError(
            f"unexpected token {token.value!r} at offset {token.position}"
        )

    def _maybe_interval(self, value: int) -> ast.DateLiteral:
        """``DATE '...' [+|-] INTERVAL 'n' DAY`` folded at parse time."""
        sign = 0
        if self.peek().kind == "punct" and self.peek().value in ("+", "-"):
            if self.peek(1).kind == "kw" and self.peek(1).value == "interval":
                sign = 1 if self.advance().value == "+" else -1
        if sign and self.accept("kw", "interval"):
            days = int(self.expect("string").value)
            unit = self.expect("kw")
            if unit.value == "day":
                value = date_add_days(value, sign * days)
            elif unit.value == "month":
                value = date_add_days(value, sign * days * 30)
            elif unit.value == "year":
                value = value + sign * days * 10000
            else:
                raise SQLSyntaxError(
                    f"unsupported interval unit {unit.value!r} at offset "
                    f"{unit.position}"
                )
        return ast.DateLiteral(value)


def parse(text: str) -> ast.Query:
    """Parse one SQL statement into an AST."""
    return Parser(text).parse_query()
