"""Tiny arithmetic expression evaluator for function specs.

Supports +, -, *, /, ^ (power), parentheses, the functions min, max, abs,
exp, sqrt, the variables x, y, z, the radial shorthand r = |x|, and the
constant pi.  Expressions are evaluated pointwise on numpy arrays.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import ExpressionError

__all__ = ["parse_expression", "evaluate_expression", "Expression"]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?|(?P<name>[A-Za-z_]\w*)"
    r"|(?P<op>\*\*|[-+*/^(),]))"
)

_FUNCTIONS = {
    "abs": (1, np.abs),
    "exp": (1, np.exp),
    "sqrt": (1, np.sqrt),
    "min": (2, np.minimum),
    "max": (2, np.maximum),
}


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip():
                raise ExpressionError(f"unexpected character at position {pos}: {text[pos:]!r}")
            break
        if m.group("num") is not None:
            tokens.append(("num", float(text[m.start() : m.end()])))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            op = m.group("op")
            tokens.append(("op", "^" if op == "**" else op))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


class Expression:
    """Parsed expression; call with an environment of coordinate arrays."""

    def __init__(self, text: str):
        self.text = text
        self._tokens = _tokenize(text)
        self._pos = 0
        self._ast = self._parse_sum()
        if self._peek() != ("end", None):
            raise ExpressionError(f"trailing input in expression: {text!r}")

    # -- recursive descent ------------------------------------------------
    def _peek(self):
        return self._tokens[self._pos]

    def _next(self):
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _expect(self, op):
        kind, val = self._next()
        if kind != "op" or val != op:
            raise ExpressionError(f"expected '{op}' in expression {self.text!r}")

    def _parse_sum(self):
        node = self._parse_product()
        while self._peek() == ("op", "+") or self._peek() == ("op", "-"):
            _, op = self._next()
            rhs = self._parse_product()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    def _parse_product(self):
        node = self._parse_unary()
        while self._peek() == ("op", "*") or self._peek() == ("op", "/"):
            _, op = self._next()
            rhs = self._parse_unary()
            node = ("mul" if op == "*" else "div", node, rhs)
        return node

    def _parse_unary(self):
        if self._peek() == ("op", "-"):
            self._next()
            return ("neg", self._parse_unary())
        if self._peek() == ("op", "+"):
            self._next()
            return self._parse_unary()
        return self._parse_power()

    def _parse_power(self):
        base = self._parse_atom()
        if self._peek() == ("op", "^"):
            self._next()
            return ("pow", base, self._parse_unary())
        return base

    def _parse_atom(self):
        kind, val = self._next()
        if kind == "num":
            return ("const", val)
        if kind == "name":
            if val in _FUNCTIONS:
                self._expect("(")
                arity, _ = _FUNCTIONS[val]
                args = [self._parse_sum()]
                while self._peek() == ("op", ","):
                    self._next()
                    args.append(self._parse_sum())
                self._expect(")")
                if len(args) != arity:
                    raise ExpressionError(f"{val} expects {arity} argument(s)")
                return ("call", val, args)
            if val == "pi":
                return ("const", math.pi)
            if val in ("x", "y", "z", "r"):
                return ("var", val)
            raise ExpressionError(f"unknown identifier {val!r}")
        if kind == "op" and val == "(":
            node = self._parse_sum()
            self._expect(")")
            return node
        raise ExpressionError(f"unexpected token in expression {self.text!r}")

    # -- evaluation --------------------------------------------------------
    def __call__(self, points: np.ndarray):
        """Evaluate at points of shape (N, n) with n in {2, 3}; returns (N,)."""
        points = np.asarray(points, dtype=float)
        env = {"x": points[..., 0], "y": points[..., 1]}
        if points.shape[-1] > 2:
            env["z"] = points[..., 2]
        env["r"] = np.sqrt(np.sum(points * points, axis=-1))
        return self._eval(self._ast, env)

    def _eval(self, node, env):
        tag = node[0]
        if tag == "const":
            return node[1]
        if tag == "var":
            if node[1] not in env:
                raise ExpressionError(f"variable {node[1]!r} unavailable in this dimension")
            return env[node[1]]
        if tag == "neg":
            return -self._eval(node[1], env)
        if tag in ("add", "sub", "mul", "div", "pow"):
            a = self._eval(node[1], env)
            b = self._eval(node[2], env)
            if tag == "add":
                return a + b
            if tag == "sub":
                return a - b
            if tag == "mul":
                return a * b
            if tag == "div":
                with np.errstate(divide="ignore", invalid="ignore"):  # callers refuse inf and nan
                    return np.true_divide(a, b)
            return np.power(a, b)
        _, fn = _FUNCTIONS[node[1]]
        args = [self._eval(arg, env) for arg in node[2]]
        return fn(*args)


def parse_expression(text: str) -> Expression:
    return Expression(text)


def evaluate_expression(text: str, points: np.ndarray):
    return Expression(text)(points)
