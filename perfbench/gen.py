"""Seeded program text for the benchmark workloads.

The generators are copied from ``repro.workloads`` (structured random,
irreducible, goto-jump, loop-nest and planted-defect programs) and emit
pretty-printed source text directly, so a change under ``src/`` can
never change what the benchmark feeds the program under test.  The
rendering follows ``repro.lang.pretty``: four-space indentation, one
statement per line and minimal parentheses.

Every program names a target line count.  :func:`program_of_lines`
searches the family's size parameter, with seeds derived from the
workload seed, until the text lands within 10% of the target, so two
seeds give different programs of nearly the same size.
"""

from __future__ import annotations

import random

_ARITH_OPS = ("+", "-", "*", "/", "%")
_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")
_PRECEDENCE = {
    "||": 1, "&&": 2,
    "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
    "+": 4, "-": 4, "*": 5, "/": 5, "%": 5,
}

# -- expressions: ints, variable names, or (op, left, right) ----------------


def render(expr, parent_level: int = 0) -> str:
    """Minimal-parenthesis rendering, as ``repro.lang.pretty`` does."""
    if isinstance(expr, int):
        return str(expr)
    if isinstance(expr, str):
        return expr
    op, left, right = expr
    level = _PRECEDENCE[op]
    non_assoc = level == 3
    text = (
        f"{render(left, level + 1 if non_assoc else level)} {op} "
        f"{render(right, level + 1)}"
    )
    return f"({text})" if parent_level > level else text


def random_expr(rng: random.Random, variables, depth=2, comparison=False):
    def arith(d: int):
        if d <= 0 or rng.random() < 0.3:
            if variables and rng.random() < 0.7:
                return rng.choice(variables)
            return rng.randint(0, 9)
        op = rng.choice(_ARITH_OPS)
        left = arith(d - 1)
        right = arith(d - 1)
        if op in ("/", "%"):
            right = ("+", ("*", right, right), 1)  # never zero
        return (op, left, right)

    if comparison:
        return (rng.choice(_CMP_OPS), arith(depth - 1), arith(depth - 1))
    return arith(depth)


class _Text:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 0

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


# -- structured random programs (repro.workloads.generators.random_program) --


def random_program(rng: random.Random, size: int, num_vars: int = 4) -> str:
    variables = [f"v{i}" for i in range(num_vars)]
    out = _Text()
    fuel_counter = [0]

    def block(stmts) -> None:
        out.depth += 1
        for stmt in stmts:
            stmt()
        out.depth -= 1

    def gen(budget: int, depth: int) -> list:
        stmts: list = []
        while budget > 0:
            roll = rng.random()
            if depth >= 3 or roll < 0.55 or budget < 4:
                target = rng.choice(variables)
                expr = render(random_expr(rng, variables))
                stmts.append(lambda t=target, e=expr: out.emit(f"{t} := {e};"))
                budget -= 1
                if rng.random() < 0.15:
                    var = rng.choice(variables)
                    stmts.append(lambda v=var: out.emit(f"print {v};"))
            elif roll < 0.8:
                cond = render(random_expr(rng, variables, comparison=True))
                inner = max(1, budget // 2)
                then_body = gen(rng.randint(1, inner), depth + 1)
                else_body = (
                    gen(rng.randint(1, inner), depth + 1)
                    if rng.random() < 0.6 else []
                )

                def if_stmt(c=cond, t=then_body, e=else_body):
                    out.emit(f"if ({c}) {{")
                    block(t)
                    if e:
                        out.emit("} else {")
                        block(e)
                    out.emit("}")

                stmts.append(if_stmt)
                budget -= 2 + len(then_body) + len(else_body)
            else:
                fuel = f"fuel{fuel_counter[0]}"
                fuel_counter[0] += 1
                inner = max(1, budget // 2)
                body = gen(rng.randint(1, inner), depth + 1)
                body.append(lambda f=fuel: out.emit(f"{f} := {f} - 1;"))
                guard = render(("&&", random_expr(
                    rng, variables, comparison=True), (">", fuel, 0)))
                init = rng.randint(1, 8)
                stmts.append(lambda f=fuel, i=init: out.emit(f"{f} := {i};"))
                if rng.random() < 0.5:
                    def while_stmt(g=guard, b=body):
                        out.emit(f"while ({g}) {{")
                        block(b)
                        out.emit("}")

                    stmts.append(while_stmt)
                else:
                    until = render(("||", random_expr(
                        rng, variables, comparison=True), ("<=", fuel, 0)))

                    def repeat_stmt(u=until, b=body):
                        out.emit("repeat {")
                        block(b)
                        out.emit(f"}} until ({u});")

                    stmts.append(repeat_stmt)
                budget -= 3 + len(body)
        return stmts

    for stmt in gen(size, 0):
        stmt()
    for name in variables:
        out.emit(f"print {name};")
    return out.source()


# -- irreducible and goto-jump programs --------------------------------------


def irreducible_program(rng: random.Random, blocks: int) -> str:
    out = _Text()
    out.emit(f"n := {rng.randint(3, 9)};")
    out.emit("if (n > 5) {")
    out.emit("    goto second;")
    out.emit("}")
    out.emit("label first:")
    out.emit("n := n - 1;")
    out.emit("label second:")
    out.emit("n := n - 1;")
    out.emit("if (n > 0) {")
    out.emit("    goto first;")
    out.emit("}")
    for i in range(blocks):
        out.emit(f"label blk{i}:")
        if rng.random() < 0.4 and i > 0:
            # Decrement before the back-jump: the program terminates.
            out.emit("n := n - 1;")
            out.emit(f"b{i} := n + {i};")
            out.emit(f"if (n == {i}) {{")
            out.emit(f"    goto blk{rng.randrange(i)};")
            out.emit("}")
        else:
            out.emit(f"b{i} := n + {i};")
    out.emit("print n;")
    return out.source()


def jump_program(rng: random.Random, blocks: int) -> str:
    """Arbitrary (usually irreducible) control flow through random gotos;
    these often loop forever, which structural analyses must survive."""
    body: list[str] = []
    for i in range(blocks):
        body.append(f"label L{i}:")
        expr = render(random_expr(rng, ["v0", "v1", "v2"], depth=1))
        body.append(f"v{i % 3} := {expr};")
        if rng.random() < 0.7:
            cond = render(random_expr(rng, ["v0", "v1"], comparison=True))
            body.append(f"if ({cond}) {{")
            body.append(f"    goto L{rng.randrange(blocks)};")
            body.append("}")
    for _ in range(blocks // 4):
        # Only between whole statements: never inside an if block.
        starts = [
            k for k, line in enumerate(body)
            if not line.startswith(" ") and not line.startswith("}")
        ]
        body.insert(rng.choice(starts), f"goto L{rng.randrange(blocks)};")
    body.append("print v0;")
    return "\n".join(body) + "\n"


# -- loop nests (repro.workloads.ladders.loop_nest, seeded) ------------------


def loop_program(rng: random.Random, towers: int) -> str:
    out = _Text()
    for w in range(towers):
        acc = f"acc{w}"
        out.emit(f"{acc} := {rng.randint(0, 9)};")
        depth = rng.randint(2, 5)
        for level in range(depth):
            fuel = f"f{w}_{level}"
            out.emit(f"{fuel} := {rng.randint(2, 3)};")
            out.emit(f"while ({fuel} > 0) {{")
            out.depth += 1
            if rng.random() < 0.5:
                expr = render(random_expr(rng, [acc, fuel], depth=1))
                out.emit(f"{acc} := {acc} + {expr};")
        out.emit(f"{acc} := {acc} + 1;")
        for level in reversed(range(depth)):
            out.emit(f"f{w}_{level} := f{w}_{level} - 1;")
            out.depth -= 1
            out.emit("}")
        out.emit(f"print {acc};")
    return out.source()


# -- planted-defect programs (repro.workloads.lint_defects) ------------------


class _Case:
    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.lines: list[str] = []
        self.fresh = 0

    def emit(self, text: str) -> None:
        self.lines.append(text)

    def name(self, prefix: str) -> str:
        self.fresh += 1
        return f"{prefix}{self.fresh}"

    def mixed(self) -> str:
        return self.rng.choice(("s0", "s1"))


def _use_before_def(c: _Case) -> None:
    c.emit(f"print {c.name('u')} + {c.rng.randint(1, 5)};")


def _maybe_uninit(c: _Case) -> None:
    var = c.name("c")
    c.emit(f"if ({c.mixed()} > {c.rng.randint(10, 30)}) {{")
    c.emit(f"    {var} := {c.mixed()} + {c.rng.randint(1, 5)};")
    c.emit("}")
    c.emit(f"print {var};")


def _dead_store(c: _Case) -> None:
    var = c.name("d")
    c.emit(f"{var} := {c.mixed()} * {c.rng.randint(2, 5)};")
    c.emit(f"{var} := {c.mixed()} + {c.rng.randint(1, 5)};")
    c.emit(f"print {var};")


def _never_branch(c: _Case) -> None:
    c.emit("if (0) {")
    c.emit(f"    {c.name('e')} := {c.mixed()} + 1;")
    c.emit("}")


def _always_branch(c: _Case) -> None:
    var = c.name("f")
    c.emit("if (1) {")
    c.emit(f"    {var} := {c.mixed()} + {c.rng.randint(1, 5)};")
    c.emit("} else {")
    c.emit(f"    {var} := {c.mixed()} - 1;")
    c.emit("}")
    c.emit(f"print {var};")


def _dead_chain(c: _Case) -> None:
    var = c.name("k")
    bound = c.name("t")
    c.emit(f"{var} := 0;")
    c.emit(f"{bound} := {c.rng.randint(2, 4)};")
    c.emit(f"while ({bound} > 0) {{")
    c.emit(f"    {var} := {var} + 1;")
    c.emit(f"    {bound} := {bound} - 1;")
    c.emit("}")


def _self_assign(c: _Case) -> None:
    var = c.name("g")
    c.emit(f"{var} := {c.mixed()} + {c.rng.randint(1, 5)};")
    c.emit(f"{var} := {var};")
    c.emit(f"print {var};")


def _tainted_print(c: _Case) -> None:
    src, mid, out = c.name("u"), c.name("t"), c.name("t")
    c.emit(f"{mid} := {src} + {c.rng.randint(1, 5)};")
    c.emit(f"{out} := {mid} * {c.rng.randint(2, 4)};")
    c.emit(f"print {out};")


def _empty_range_branch(c: _Case) -> None:
    var = c.name("r")
    lo = c.rng.randint(2, 5)
    c.emit(f"{var} := {lo};")
    c.emit(f"if ({c.mixed()} > {c.rng.randint(10, 30)}) {{")
    c.emit(f"    {var} := {lo + c.rng.randint(1, 4)};")
    c.emit("}")
    c.emit(f"if ({var} > 0) {{")
    c.emit(f"    s0 := s0 + {var};")
    c.emit("} else {")
    c.emit(f"    s1 := s1 - {var};")
    c.emit("}")


def _ntscd_dead(c: _Case) -> None:
    var = c.name("w")
    c.emit(f"if ({c.mixed()} > {c.rng.randint(500, 900)}) {{")
    c.emit(f"    {var} := {c.rng.randint(3, 9)};")
    c.emit(f"    while ({var} > 0) {{")
    c.emit(f"        {var} := {var} + {c.rng.randint(1, 3)};")
    c.emit("    }")
    c.emit(f"    print {var};")
    c.emit("}")


_TEMPLATES = (
    _use_before_def, _maybe_uninit, _dead_store, _never_branch,
    _always_branch, _dead_chain, _self_assign, _tainted_print,
    _empty_range_branch, _ntscd_dead,
)


def defect_program(rng: random.Random, copies: int) -> str:
    """Every planted-defect template ``copies`` times over a prologue
    that launders the filler variables, so every lint rule fires."""
    c = _Case(rng)
    c.emit(f"n0 := {rng.randint(5, 9)};")
    c.emit(f"s0 := {rng.randint(1, 9)};")
    c.emit(f"s1 := {rng.randint(1, 9)};")
    c.emit("while (n0 > 0) {")
    c.emit("    s0 := s0 + n0;")
    c.emit("    s1 := s1 + s0;")
    c.emit("    n0 := n0 - 1;")
    c.emit("}")
    c.emit("s0 := s0 - s1;")
    c.emit("s1 := s1 - s0;")
    for _ in range(max(1, copies)):
        templates = list(_TEMPLATES)
        rng.shuffle(templates)
        for template in templates:
            for _ in range(rng.randint(0, 2)):
                var = c.mixed()
                op = rng.choice(("+", "-", "*"))
                c.emit(f"{var} := {var} {op} {rng.randint(1, 5)};")
            template(c)
    c.emit("print s0;")
    c.emit("print s1;")
    return "\n".join(c.lines) + "\n"


# -- sizing ------------------------------------------------------------------

#: family -> (generator, approximate lines per unit of its size knob)
_SIZED = {
    "random": (random_program, 3.0),
    "loop": (loop_program, 11.0),
    "jump": (jump_program, 4.3),
    "irreducible": (irreducible_program, 3.7),
    "defect": (defect_program, 55.0),
}


def line_count(source: str) -> int:
    return source.count("\n")


def program_of_lines(family: str, target: int, seed, tag: str) -> str:
    """A ``family`` program within 10% of ``target`` lines (or the
    closest of 40 tries), fully determined by ``(seed, tag)``."""
    make, per_unit = _SIZED[family]
    knob = max(1.0, target / per_unit)
    best = None
    for attempt in range(40):
        rng = random.Random(f"{seed}:{tag}:{family}:{target}:{attempt}")
        source = make(rng, max(1, round(knob)))
        lines = line_count(source)
        if best is None or abs(lines - target) < abs(line_count(best) - target):
            best = source
        if abs(lines - target) <= 0.1 * target:
            return source
        knob = max(1.0, knob * (0.5 + 0.5 * target / max(1, lines)))
    return best
