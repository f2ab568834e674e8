"""Parameter words over a finite alphabet: validation, substitution, enumeration.

An m-parameter word of length n over an alphabet A is a word in
``(A + {x1..xm})^n`` in which every variable occurs and first occurrences
come in increasing variable order.  Words of this shape compose by
simultaneous substitution: every occurrence of ``x_i`` in ``u`` is replaced
by the i-th token of ``v``.  Positions are 1-based throughout.

Tokens are stored as tagged integers: variable ``x_i`` is ``+i``, the j-th
alphabet letter (0-based) is ``-(j+1)``.  The only I/O representation is the
whitespace-separated text form with letters verbatim and variables ``x1``,
``x2``, ...
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import partial
from typing import Iterator

from .errors import BudgetError, DomainError, WordError

_VAR_TEXT = re.compile(r"^x([1-9][0-9]*)$")


def var_token(i: int) -> int:
    return i


def letter_token(j: int) -> int:
    return -(j + 1)


def is_var(token: int) -> bool:
    return token > 0


def letter_index(token: int) -> int:
    return -token - 1


@dataclass(frozen=True)
class Alphabet:
    """A finite set of letter symbols, disjoint from the variable tokens."""

    letters: tuple[str, ...]

    def __init__(self, letters):
        object.__setattr__(self, "letters", tuple(str(c) for c in letters))
        seen = set()
        for c in self.letters:
            if c in seen:
                raise DomainError(f"duplicate letter {c!r} in alphabet")
            seen.add(c)
            if _VAR_TEXT.match(c):
                raise DomainError(f"letter {c!r} collides with a variable name")
            if not c or any(ch.isspace() for ch in c):
                raise DomainError(f"letter {c!r} must be a nonempty token without whitespace")

    def __len__(self) -> int:
        return len(self.letters)

    def token_of(self, text: str) -> int:
        """Parse one textual token into its tagged-integer form."""
        m = _VAR_TEXT.match(text)
        if m:
            return var_token(int(m.group(1)))
        try:
            return letter_token(self.letters.index(text))
        except ValueError:
            raise WordError(f"unknown token {text!r}") from None

    def text_of(self, token: int) -> str:
        if is_var(token):
            return f"x{token}"
        return self.letters[letter_index(token)]


@dataclass(frozen=True)
class ParameterWord:
    """An m-parameter word; use :func:`validate` or :func:`parse` to build one."""

    alphabet: Alphabet
    m: int
    symbols: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.symbols)

    def text(self) -> str:
        return " ".join(self.alphabet.text_of(t) for t in self.symbols)

    def __str__(self) -> str:
        return self.text()


def validate(symbols, alphabet: Alphabet, m: int) -> ParameterWord:
    """Check the parameter-word invariants for exactly the declared m.

    Errors name the offending 1-based position: an unknown or out-of-range
    token, a variable whose first occurrence precedes that of a lower one,
    or a variable in ``1..m`` that never occurs.
    """
    symbols = tuple(symbols)
    if m < 0:
        raise WordError(f"parameter count must be nonnegative, got {m}")
    n_letters = len(alphabet)
    introduced = 0
    for pos, tok in enumerate(symbols, start=1):
        if is_var(tok):
            if tok > m:
                raise WordError(
                    f"position {pos}: variable x{tok} exceeds declared parameter count {m}",
                    position=pos,
                )
            if tok > introduced:
                if tok != introduced + 1:
                    raise WordError(
                        f"position {pos}: first occurrence of x{tok} precedes that of x{introduced + 1}",
                        position=pos,
                    )
                introduced = tok
        else:
            if not 0 <= letter_index(tok) < n_letters:
                raise WordError(f"position {pos}: unknown letter token", position=pos)
    if introduced < m:
        raise WordError(f"variable x{introduced + 1} never appears")
    return ParameterWord(alphabet, m, symbols)


def parse(text: str, alphabet: Alphabet, m: int | None = None) -> ParameterWord:
    """Parse the text form.  When ``m`` is omitted it is inferred as the
    largest variable index present (0 for a variable-free word)."""
    tokens = [alphabet.token_of(t) for t in text.split()]
    if m is None:
        m = max((t for t in tokens if is_var(t)), default=0)
    return validate(tokens, alphabet, m)


def variable_positions(word: ParameterWord, i: int) -> frozenset[int]:
    """The set of 1-based positions where ``x_i`` occurs; nonempty by the word invariant."""
    if not 1 <= i <= word.m:
        raise DomainError(f"variable index {i} out of range 1..{word.m}")
    return frozenset(pos for pos, tok in enumerate(word.symbols, start=1) if tok == i)


def compose(u: ParameterWord, v: ParameterWord) -> ParameterWord:
    """Substitute ``v``'s tokens for ``u``'s variables.

    Requires ``v`` to have length equal to ``u``'s parameter count and the
    same alphabet.  The result is re-validated rather than trusted.
    """
    if u.alphabet != v.alphabet:
        raise WordError("alphabet mismatch between composed words")
    if v.n != u.m:
        raise WordError(f"length of second word ({v.n}) must equal parameter count of first ({u.m})")
    out = tuple(v.symbols[tok - 1] if is_var(tok) else tok for tok in u.symbols)
    return validate(out, u.alphabet, v.m)


def identity(alphabet: Alphabet, n: int) -> ParameterWord:
    """The word ``x1 x2 ... xn``, the identity for substitution; the empty
    word for n = 0."""
    if n < 0:
        raise DomainError(f"identity length must be nonnegative, got {n}")
    return ParameterWord(alphabet, n, tuple(range(1, n + 1)))


def count_words(alphabet: Alphabet, n: int, m: int) -> int:
    """The number of m-parameter words of length n over the alphabet.

    A word introduces x1, ..., xm in order at m of its positions; each of
    the other n - m positions, after j variables are introduced, carries
    one of |A| + j symbols.  When n - m is at most m/4 the count is that
    sum over the positions, the complete homogeneous polynomial of degree
    n - m in |A|, ..., |A| + m, built one variable at a time.  Otherwise it
    is sum over j of (-1)^(m-j) C(m, j) (|A| + j)^n / m! by Stirling
    inversion, m + 1 powers, which is quicker there.
    """
    if n < 0 or m < 0:
        raise DomainError("n and m must be nonnegative")
    a, free = len(alphabet), n - m
    if free < 0:
        return 0
    if 4 * free <= m:
        h = [1] + [0] * free  # h[d]: degree-d sum over the symbol counts so far
        for x in range(a, a + m + 1):
            for d in range(1, free + 1):
                h[d] += x * h[d - 1]
        return h[free]
    return sum((-1) ** (m - j) * math.comb(m, j) * (a + j) ** n
               for j in range(m + 1)) // math.factorial(m)


def enumerate_words(alphabet: Alphabet, n: int, m: int, limit: int) -> Iterator[ParameterWord]:
    """Yield every m-parameter word of length n exactly once, depth-first.

    Candidate order at each position: already-introduced variables in
    increasing index order, then the next fresh variable, then letters in
    declared order.  The stream is empty when ``m > n``; W^0_0 is the empty
    word alone.  Raises :class:`BudgetError`, before building any word, when
    more than ``limit`` words exist.
    """
    return map(partial(ParameterWord, alphabet, m), _word_symbols(alphabet, n, m, limit))


def _word_symbols(alphabet: Alphabet, n: int, m: int, limit: int) -> Iterator[tuple[int, ...]]:
    """The symbol tuples of :func:`enumerate_words`, in its order and with
    its refusals; the oracle keeps words as these tuples."""
    if n < 0 or m < 0:
        raise DomainError("n and m must be nonnegative")
    if limit < 0:
        raise DomainError("limit must be nonnegative")
    if m > n:
        return
    # Lower bounds refuse before any big power of the exact count is taken:
    # the (|A|+m)^(n-m) words that open with x1 ... xm, by bit length, and
    # for 1 <= m < n the C(n, m-1) letter-free words whose variables other
    # than one fill a single position each.  Only x1 ... xn has m = n.
    if m == n:
        refused = limit < 1
    else:
        bound_bits = (n - m) * ((len(alphabet) + m).bit_length() - 1)
        refused = (bound_bits >= limit.bit_length()
                   or (m >= 1 and math.comb(n, m - 1) > limit)
                   or count_words(alphabet, n, m) > limit)
    if refused:
        raise BudgetError(f"enumeration of W^{n}_{m} exceeded limit {limit}: "
                          f"at least {limit + 1} words exist")
    if n == 0:
        yield ()
        return
    letters = [letter_token(j) for j in range(len(alphabet))]

    def options(pos: int, used: int) -> list[int]:
        if m - used == n - pos:  # every remaining position must introduce a variable
            return [var_token(used + 1)]
        return [var_token(i) for i in range(1, min(used + 1, m) + 1)] + letters

    prefix: list[int] = []
    used = [0]  # used[pos]: the variables introduced by prefix[:pos]
    todo = [iter(options(0, 0))]  # todo[pos]: the untried tokens for position pos
    while todo:
        pos = len(todo) - 1
        del prefix[pos:], used[pos + 1:]
        tok = next(todo[pos], None)
        if tok is None:
            todo.pop()
            continue
        prefix.append(tok)
        used.append(max(used[pos], tok))  # letters are negative, a fresh variable is used + 1
        if pos + 1 < n:
            todo.append(iter(options(pos + 1, used[pos + 1])))
            continue
        yield tuple(prefix)
