"""Mutation check: which checks carry independent evidence.

Each mutant is one textual substitution in a temporary copy of ``src/``.
For each mutant in turn, with no process pool, the script runs
``unilim verify --all --seeds 0..20`` and the mutant's test file against
the copy.  A check kills a mutant when it fails on it (a non-zero exit or
a timeout).  Every mutant names the checks expected to kill it; the script
exits 1 if any of them lets its mutant survive, and 0 otherwise.

An equivalent mutant changes the code but not what it computes, so no
check can kill it (DeMillo, Lipton & Sayward 1978).  It names no killers
and gives its reason instead; the script still runs it, reports it as
equivalent rather than as a survivor, and exits 1 if any check kills it,
since then it was not equivalent.

    python tests/mutants.py          # every mutant, 169 s on a 2-core VM
    python tests/mutants.py NAME...  # only the named mutants

Stdlib only, and not collected by pytest (its name does not start with
``test_``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 120


class Mutant(NamedTuple):
    path: str  # under src/unilim
    old: str  # must occur exactly once in the file
    new: str
    test_file: str  # under tests/
    killers: tuple[str, ...]  # "verify" and/or "tests"; none when equivalent
    equivalent: str = ""  # why no check can kill it, in one line


MUTANTS = {
    "ulim_topology on the diagonal": Mutant(
        "topology.py",
        "TopologyFamily(tower.ground_size, z.columns())",
        "TopologyFamily(tower.ground_size, [1 << x for x in range(tower.ground_size)])",
        "test_topology.py",
        ("verify", "tests"),
    ),
    "tlim_topology fixpoint stopped after one pass": Mutant(
        "topology.py",
        "for lvl in range(top):",
        "for lvl in range(0):",
        "test_topology.py",
        (),
        "consecutive levels agree on zero-pairs, so every level's zero-relation "
        "lies inside the top one",
    ),
    # points born at the top level then lose the zero-pairs they make there
    "tlim leaves out the top level's zero-relation": Mutant(
        "topology.py",
        "rows = list(tower.zero_relation(top).rows)\n",
        "rows = [1 << x for x in range(tower.ground_size)]\n",
        "test_topology.py",
        ("verify", "tests"),
    ),
    "ulim_topology on the full square": Mutant(
        "topology.py",
        "z = tower.zero_relation(tower.top_level)",
        "z = tower.grid_entourages(tower.top_level)[-1]",
        "test_topology.py",
        ("verify", "tests"),
    ),
    "is_continuous tests u >> y for u >> f(y)": Mutant(
        "regularity.py",
        "if not u >> f(y) & 1:",
        "if not u >> y & 1:",
        "test_regularity.py",
        ("verify", "tests"),
    ),
    "minimal_grid_ball one level below the top": Mutant(
        "topology.py",
        "tower.zero_relation(tower.top_level).columns()[x]",
        "tower.zero_relation(tower.top_level - 1).columns()[x]",
        "test_topology.py",
        ("tests",),
    ),
    # every point set is read through core.bits, so a shifted index moves
    # every ball, neighborhood and composed row
    "bits one index too high": Mutant(
        "core.py",
        "yield low.bit_length() - 1",
        "yield low.bit_length()",
        "test_core.py",
        ("verify", "tests"),
    ),
    # the sums then stop at 2*U, short of transitivity: a path of three
    # links stays open, which T1's components and the omega-tail tests see
    "multiple adds U to itself, not to the running sum": Mutant(
        "relations.py",
        "nxt = compose(acc, u)",
        "nxt = compose(u, u)",
        "test_relations.py",
        ("verify", "tests"),
    ),
    # each component is then its lowest point's ball, which is a partition
    # only by chance
    "components grow only one ring": Mutant(
        "core.py",
        "ring = comp ^ seed",
        "ring = 0",
        "test_relations.py",
        ("verify", "tests"),
    ),
    # a one-point set then has no balls at all, so no point reaches its
    # minimal neighborhood
    "one-sweep grid ball skips the set's lowest point": Mutant(
        "topology.py",
        "for x in bits(s):",
        "for x in bits(s & s - 1):",
        "test_topology.py",
        ("verify", "tests"),
    ),
    # the triangle representatives are then chosen by first entry, not by
    # zero class: distinct rows can share their first entry, so the quotient
    # drops rows and can miss a violation; verify validates only valid tables
    "zero-class quotient keyed on each row's first entry": Mutant(
        "core.py",
        "reps = [i for i, c in enumerate(self.zero_classes) if c & -c == 1 << i]",
        "reps = list(dict(zip((row[0] for row in d), range(n))).values())",
        "test_core.py",
        ("tests",),
    ),
    "<= in sublevel": Mutant(
        "core.py",
        "if v < limit)",
        "if v <= limit)",
        "test_core.py",
        ("verify", "tests"),
    ),
    # the half scan over j < i is the whole check because both orientations
    # of each pair are compared; scanning j >= i instead is an equivalent
    # mutant, so the one-sided check is made by dropping the mirror
    # comparison
    "triangle check on one side of each pair only": Mutant(
        "core.py",
        "if (lifted[j] + dij - pi) & h != h or (li + dij - packed[j]) & h != h:",
        "if (lifted[j] + dij - pi) & h != h:",
        "test_core.py",
        ("tests",),
    ),
    # the witness then names c one field too high, the field after the
    # first failing one, or a label past the table; verify validates only
    # valid tables
    "triangle witness reads the field above the first failing one": Mutant(
        "core.py",
        "(bad & -bad).bit_length() - 1",
        "(bad & -bad).bit_length()",
        "test_core.py",
        ("tests",),
    ),
    # the witness is found among the zero-class representatives; named by
    # its index there, it names the wrong points once a class repeats below
    # it; verify validates only valid tables
    "triangle witness named by its index among the representatives": Mutant(
        "core.py",
        "a, b, c = (name(reps[x]) for x in (a, b, c))",
        "a, b, c = (name(x) for x in (a, b, c))",
        "test_core.py",
        ("tests",),
    ),
    # with a field one bit short, 2*max no longer fits below the top bit,
    # so a field of the triangle check can carry into the next one and a
    # field of the closure's t can borrow from it
    "packed fields one bit short": Mutant(
        "core.py",
        "w = (2 * max(map(max, rows), default=0)).bit_length() + 1",
        "w = max(1, (2 * max(map(max, rows), default=0)).bit_length())",
        "test_core.py",
        ("verify", "tests"),
    ),
    # the triangle check lifts every field by 2^(w-2), as if its fields
    # were one bit short, so a field's top bit no longer says the sign
    "packed triangle fields one bit short": Mutant(
        "core.py",
        "lifted = [p + h for p in packed]",
        "lifted = [p + (h >> 1) for p in packed]",
        "test_core.py",
        ("verify", "tests"),
    ),
    # the closure reads the sign of t one bit low in each field, so it
    # writes s's entry with t's lowest bit left over
    "packed closure fields one bit short": Mutant(
        "core.py",
        "top_bit = shifts.step - 1",
        "top_bit = shifts.step - 2",
        "test_core.py",
        ("verify", "tests"),
    ),
    # the last field of ONES and of H is then empty, so the closure never
    # relaxes the last column; the triangle check never reads it either,
    # which on a symmetric table loses no triangle
    "ONES misses the last field": Mutant(
        "core.py",
        "(1 << len(rows) * w)",
        "(1 << (len(rows) - 1) * w)",
        "test_core.py",
        ("verify", "tests"),
    ),
    # a negative entry can push a field of t below 0, which then borrows
    # from the next; no generated table has one, so only the tests see it
    "closure accepts a negative entry": Mutant(
        "core.py",
        "if min(map(min, d), default=0) < 0:",
        "if False:",
        "test_core.py",
        ("tests",),
    ),
    # with the top bit in the mask, a relaxed field loses 2^(w-1) as well
    "closure mask keeps the top bit": Mutant(
        "core.py",
        "t & (m - (m >> top_bit))",
        "t & (m - (m >> top_bit) | m)",
        "test_core.py",
        ("verify", "tests"),
    ),
    # product and box tables share the coordinate max, so both then hold
    # the min, which the certificate rejects
    "product takes the coordinate min": Mutant(
        "constructions.py",
        "[x if x > y else y for x, y in zip(r, s)]",
        "[x if x < y else y for x, y in zip(r, s)]",
        "test_constructions.py",
        ("verify", "tests"),
    ),
    # a spread row that reads the factor row at its own coordinate holds
    # d(i, i) = 0 throughout, so no factor adds to the max; box and product
    # tables share the spread
    "box_tower spreads the row coordinate for the column coordinate": Mutant(
        "constructions.py",
        "spread = [[row[y] * f for y in col] for row in t.numer]",
        "spread = [[row[r] * f for y in col] for r, row in enumerate(t.numer)]",
        "test_constructions.py",
        ("verify", "tests"),
    ),
    # a certificate that expects the min rejects every product with a
    # positive distance, so verify stops on CertificateFailure (exit 3)
    "certificate compares against min": Mutant(
        "constructions.py",
        "want = list(flat) if c == 0 else [x if x > y else y for x, y in zip(want, flat)]",
        "want = list(flat) if c == 0 else [x if x < y else y for x, y in zip(want, flat)]",
        "test_constructions.py",
        ("verify", "tests"),
    ),
    # the certificate then expects the max over all but the last coordinate,
    # less than the table wherever the last one dominates (box and product
    # tables share the certificate call)
    "box certificate skips a coordinate": Mutant(
        "constructions.py",
        "_certify_coordinate_max(tables, points, d, level, labels)",
        "_certify_coordinate_max(tables[:-1], points, d, level, labels)",
        "test_constructions.py",
        ("verify", "tests"),
    ),
    "product_topology takes the union of the strips": Mutant(
        "constructions.py",
        "list(map(operator.and_, nbhd, strip))",
        "list(map(operator.or_, nbhd, strip))",
        "test_constructions.py",
        ("verify", "tests"),
    ),
    # level 0 then holds no tuple, so every product, box and cyclic group
    # tower fails its nesting check; verify stops while it generates its
    # instances
    "level sizes count tuples below the level": Mutant(
        "constructions.py",
        "bisect.bisect_right(height, n)",
        "bisect.bisect_left(height, n)",
        "test_constructions.py",
        ("verify", "tests"),
    ),
    # rows with the same distance to point 0 need not be equal rows; every
    # zero-pair check reads this one grouping
    "zero-relation classes keyed on each row's first entry": Mutant(
        "core.py",
        "ids = [number.setdefault(row, len(number)) for row in self.numer]",
        "ids = [number.setdefault(row[0], len(number)) for row in self.numer]",
        "test_core.py",
        ("verify", "tests"),
    ),
    # a table scaled by 0 then keeps the classes of its unscaled rows, not
    # one class of all points; no seeded path scales by 0
    "scale keeps the zero classes through a zero factor": Mutant(
        "core.py",
        'if p > 0 and hasattr(self, "_classes"):',
        'if hasattr(self, "_classes"):',
        "test_core.py",
        ("tests",),
    ),
    # the first two only add chains that are not valley-shaped, all of
    # weight at least the limit, so every value stays; only the shape check
    # of L-mod and the chain property test see them
    "valley descent allows equal heights": Mutant(
        "limitmetric.py",
        "for u in range(sizes[h[v]], x + 1):",
        "for u in range(v + 1, x + 1):",
        "test_limitmetric.py",
        ("verify", "tests"),
    ),
    # only states past the turn the DP has reached (u < v): the others still
    # cost more than any chain, and dropping those links would change values
    # as well
    "valley flat link taken past the turn": Mutant(
        "limitmetric.py",
        "if u != v and down[u] + wv[u] < best:  # flat link, from the descent\n"
        "                best, via = down[u] + wv[u], u\n",
        "if u != v and (up if u < v else down)[u] + wv[u] < best:\n"
        "                best, via = (up if u < v else down)[u] + wv[u], n * (u < v) + u\n",
        "test_limitmetric.py",
        ("verify", "tests"),
    ),
    # reading every predecessor as a descending state forgets whether a link
    # was flat or rising, so a rising link resumes the cheapest descent
    "valley walk-back ignores the phase": Mutant(
        "limitmetric.py",
        "s = back[s]\n",
        "s = back[s] % n\n",
        "test_limitmetric.py",
        ("verify", "tests"),
    ),
    # D = L * d then need not dominate rho on the lower square, so the
    # extension can fall below rho there and restrict to it no longer: the
    # seeded sums of extensions stop being monotone, and verify stops while
    # it generates its instances
    "extension's Lipschitz factor from the largest lower distance": Mutant(
        "limitmetric.py",
        "low = min(",
        "low = max(",
        "test_limitmetric.py",
        ("verify", "tests"),
    ),
    # the closure then glues D to itself, not to rho: the extension no
    # longer restricts to the piece it extends, so d_n on level n-1 is no
    # longer d_{n-1} plus the level-n piece, which L-adeq compares
    "extension keeps D on the lower square": Mutant(
        "limitmetric.py",
        "row[:m_low] = [low * v for v in rrow]",
        "row[:m_low] = row[:m_low]",
        "test_limitmetric.py",
        ("verify", "tests"),
    ),
    # a component of the mutual pairs of a target that is not transitive
    # escapes the target, so {d_n < 1} is no longer inside it
    "target indicator keeps components that escape the target": Mutant(
        "limitmetric.py",
        "if any(c & ~r for c, r in zip(comps, target.rows)):",
        "if False:",
        "test_limitmetric.py",
        ("verify", "tests"),
    ),
    # a bound that prunes a prefix lighter than the best chain found can
    # drop the lightest chain, so the oracle reads more than the limit
    "chain oracle prunes a lighter prefix": Mutant(
        "verify.py",
        "if head >= best:",
        "if 2 * head >= best:",
        "test_limitmetric.py",
        ("verify", "tests"),
    ),
    # the last member of a class can sit higher than its lowest, and its link
    # row is then heavier; seeded towers have no zero-pair across heights, so
    # every member of a class sits at one height and verify cannot see it,
    # but the top-level twin of a level-0 point changes the limit
    "limit closure takes the last member of each class as representative": Mutant(
        "limitmetric.py",
        "lowest = [(c & -c).bit_length() - 1 for c in",
        "lowest = [c.bit_length() - 1 for c in",
        "test_metamorphic.py",
        ("tests",),
    ),
    # the first sequence asked for over a tower answers for every later one:
    # verify's L-pseudo reads the limit of the generation sequence, which
    # shares its instance's tower with the sequence L-mod and T3 read
    "limit kept on the tower, not the sequence": Mutant(
        "limitmetric.py",
        "    if seq._limit is not None:\n",
        '    seq = seq.tower.__dict__.setdefault("_limit_of", seq)\n'
        "    if seq._limit is not None:\n",
        "test_limitmetric.py",
        ("verify", "tests"),
    ),
    # row x's own level holds no point born higher, so the row stops at that
    # level's size and every link from x up across heights reads past it:
    # verify stops with an IndexError (exit 3), the tests with a failure
    "link weights read a higher point at its row's own level": Mutant(
        "limitmetric.py",
        "metrics[n].numer[x][sizes[n - 1]:]",
        "metrics[h].numer[x][sizes[n - 1]:]",
        "test_limitmetric.py",
        ("verify", "tests"),
    ),
    # every ball kept is still open and holds the minimal neighborhood, and
    # the smallest is still kept; but T1's ball of x under the omega sum of
    # the middle grid entourages is then missing from x's grid balls
    "grid balls keep only the smallest top-level ball": Mutant(
        "topology.py",
        "out = frozenset(balls)",
        "out = frozenset(balls[:1])",
        "test_topology.py",
        ("verify", "tests"),
    ),
    # one memo for every tower: a later tower reads the rows and balls of
    # an earlier one.  verify runs P-box's fixtures first, so T1's
    # three-point fixture gets balls of a larger box tower, and its
    # openness check reads past its neighborhoods (IndexError, exit 3)
    "grid-ball memo shared across towers": Mutant(
        "verify.py",
        "memo: dict = {}",
        'memo = _grid_base.__dict__.setdefault("memo", {})',
        "test_generate_verify.py",
        ("verify", "tests"),
    ),
    # a composed relation's columns are then its rows, so a ball of a
    # directed sum reads the wrong side: the rel cases with directed
    # operands print other balls, and P-group's ball of the sum of two
    # different symmetric entourages, which is directed, is not the product
    "directed relation marked symmetric": Mutant(
        "relations.py",
        "return Entourage._from_rows(u.level, rows)",
        "return Entourage._symmetric(u.level, rows)",
        "test_cli_transcript.py",
        ("verify", "tests"),
    ),
    # every point of the ball is then its own candidate, so every map is
    # regular; verify cannot see it, since a map continuous on the top
    # level is continuous on the limit whether or not it is regular
    "regularity candidates not masked to the lower level": Mutant(
        "regularity.py",
        "bits(z.rows[x] & below)",
        "bits(z.rows[x])",
        "test_regularity.py",
        ("tests",),
    ),
    # the top level's zero-pairs hold level n's, so the hypothesis is false
    # at the same maps and only a lower level's own verdict moves; verify
    # reads only the hypothesis and the conclusion, the per-level
    # comparison with the entry loop reads each level's
    "restriction continuity walks the source's top level": Mutant(
        "regularity.py",
        "enumerate(f.source.metric(n).zero_classes)",
        "enumerate(f.source.metric(f.source.top_level).zero_classes)",
        "test_regularity.py",
        ("tests",),
    ),
    # a map out of a tower with a glued pair, the backward direction, then
    # has its false conclusion under a true hypothesis read as a plain
    # false verdict (exit 1); verify's homeomorphisms violate nothing
    "homeo verdict drops the backward criterion's violation": Mutant(
        "regularity.py",
        "            or self.backward.theorem_violation\n",
        "",
        "test_regularity.py",
        ("tests",),
    ),
    "compose with its operands swapped": Mutant(
        "relations.py",
        "u, v = _promoted(u, v)",
        "v, u = _promoted(u, v)",
        "test_relations.py",
        ("verify", "tests"),
    ),
    # the omega sum then adds one repeat of the tail, not its closure, so
    # T1's ball of x under the omega sum of the middle grid entourages can
    # fall short of every grid ball of x, whose tail is closed
    "sigma_sum's omega tail left unclosed": Mutant(
        "relations.py",
        "multiple(tail, max(1, tail.size - 1)))",
        "tail)",
        "test_relations.py",
        ("verify", "tests"),
    ),
    # verify takes ball sets only under zero-relations, whose rows are
    # their columns
    "ball_set_mask reads rows for columns": Mutant(
        "relations.py",
        "cols = u.columns()",
        "cols = u.rows",
        "test_relations.py",
        ("tests",),
    ),
    "topo prints one class per point": Mutant(
        "cli.py",
        "dict.fromkeys(top.min_nbhd)",
        "top.min_nbhd",
        "test_io_cli.py",
        ("tests",),
    ),
    # the JSON reader and from_lower_triangular, which builds verify's
    # fixtures, share the fill, so both see tables whose upper triangle
    # stays zero
    "shared lower-triangular fill leaves the upper triangle zero": Mutant(
        "core.py",
        "numer[i][j] = numer[j][i] = numer_of[v]",
        "numer[i][j] = numer_of[v]",
        "test_io_cli.py",
        ("verify", "tests"),
    ),
    # keyed by Fraction, an entry whose Fraction is not equal to it, a
    # "p/q" string, is missing from the map the fill reads; verify's
    # fixtures give ints and Fractions only
    "from_lower_triangular keys its values by Fraction": Mutant(
        "core.py",
        "values = list(set().union(*rows))",
        "values = list({Fraction(v) for v in set().union(*rows)})",
        "test_core.py",
        ("tests",),
    ),
    # "²/4" then reaches int(), whose ValueError is no input error; digit
    # strings int() reads are read as Fraction reads them, so only a digit
    # that str.isdigit takes and int() refuses tells the two apart
    "rational fast path without isascii": Mutant(
        "io.py",
        'if type(v) is str and v.isascii():',
        'if type(v) is str:',
        "test_io_cli.py",
        ("tests",),
    ),
    # every grown table, each tower level and each factor, keeps its drawn
    # values unclosed, so the generated towers fail their triangle check:
    # verify stops while it generates its instances (exit 3)
    "generated levels left unclosed": Mutant(
        "generate.py",
        "    return closure_in_place(d)\n",
        "    return d\n",
        "test_generate_verify.py",
        ("verify", "tests"),
    ),
    # a new point may then sit at distance 0 from an old one, and the
    # closure of the level above shrinks a distance of the level below:
    # the tower is refused while verify generates seed 0 (exit 3)
    "grown table glues a new point to an old one": Mutant(
        "generate.py",
        "if j < k:",
        "if j < 0:",
        "test_generate_verify.py",
        ("verify", "tests"),
    ),
    # still a monotone sequence, whose limit distances are no longer the
    # closed-form 1, 1, 2 the three-point fixture of T3 compares with
    "three-point sequence's top row changed": Mutant(
        "fixtures.py",
        "[[], [2], [3, 1]]",
        "[[], [2], [3, 2]]",
        "test_acceptance.py",
        ("verify", "tests"),
    ),
    # verify reads no JSON; "1e4301" is then read as 10**4301
    "exponent guard dropped": Mutant(
        "io.py",
        "if exp and abs(int(exp[1]))",
        "if False and abs(int(exp[1]))",
        "test_io_cli.py",
        ("tests",),
    ),
    # true hashes like 1, so a table holding both reads true as 1; verify
    # reads no JSON
    "JSON reader lets booleans through": Mutant(
        "io.py",
        "_INT_OR_STR = frozenset((int, str))",
        "_INT_OR_STR = frozenset((int, str, bool))",
        "test_io_cli.py",
        ("tests",),
    ),
    # verify reads no files; a refusal then reads the same whichever file
    # holds the fault, as for --map and --homeo
    "a document refusal names no file": Mutant(
        "cli.py",
        "return _named(_place(path), parse, io.load(path), *args)",
        "return parse(io.load(path), *args)",
        "test_io_cli.py",
        ("tests",),
    ),
    # a tower without "labels" then raises KeyError, a bug that exits 3,
    # not a named input error; verify reads no JSON
    "a missing key let through": Mutant(
        "io.py",
        "    for key in keys:\n",
        "    for key in ():\n",
        "test_io_cli.py",
        ("tests",),
    ),
    # a map value of -1 then reaches a shift count; verify builds its maps
    # in range, and the JSON reader names the bad index before it builds
    # the map, so only the library test sees the guard
    "SpaceMap accepts a negative target index": Mutant(
        "regularity.py",
        "if not 0 <= v < target.ground_size:",
        "if not v < target.ground_size:",
        "test_regularity.py",
        ("tests",),
    ),
    # "(ball -1 U)" then reads the ball of the last point
    "ball accepts a negative center": Mutant(
        "relations.py",
        "if not 0 <= x < u.size:",
        "if not x < u.size:",
        "test_io_cli.py",
        ("tests",),
    ),
    # a pair (0, -1) then reaches a shift count; the JSON reader names the
    # bad index before it builds the relation, so only the library test
    # sees the guard
    "entourage accepts a negative pair index": Mutant(
        "core.py",
        "if not (0 <= i < size and 0 <= j < size):",
        "if not (i < size and j < size):",
        "test_core.py",
        ("tests",),
    ),
    # verify weighs no empty chain and builds no profile with fewer points
    # than levels; only the tests' bad inputs do
    "chain_weight accepts an empty chain": Mutant(
        "limitmetric.py",
        "if not points:",
        "if False:",
        "test_limitmetric.py",
        ("tests",),
    ),
    "Profile accepts max_size below levels": Mutant(
        "generate.py",
        "if levels < 1 or max_size < levels:",
        "if levels < 1:",
        "test_generate_verify.py",
        ("tests",),
    ),
    # verify runs no rel expression, so only the transcript sees these
    "sum composes in reverse": Mutant(
        "cli.py",
        "compose(_evaluate(u, tower, names), _evaluate(v, tower, names))",
        "compose(_evaluate(v, tower, names), _evaluate(u, tower, names))",
        "test_cli_transcript.py",
        ("tests",),
    ),
    "w not read as omega": Mutant(
        "cli.py",
        'upto in ("omega", "w")',
        'upto == "omega"',
        "test_cli_transcript.py",
        ("tests",),
    ),
    "tokens after the expression ignored": Mutant(
        "cli.py",
        "if tokens:",
        "if False:",
        "test_cli_transcript.py",
        ("tests",),
    ),
    # "0..20" then runs seeds 0 to 20, one more report than the digest test
    # pins; verify itself still passes on every seed
    "--seeds lo..hi includes hi": Mutant(
        "cli.py",
        "seeds = range(int(lo), int(hi))",
        "seeds = range(int(lo), int(hi) + 1)",
        "test_acceptance.py",
        ("tests",),
    ),
    # verify runs only well-formed seed specs; the fuzz test's long draws
    # are refused with a message past its bound
    "a refused --seeds value is echoed whole": Mutant(
        "cli.py",
        'f"{_shown(spec)} is not lo..hi',
        'f"{spec!r} is not lo..hi',
        "test_exit_codes.py",
        ("tests",),
    ),
    # P-group compares the product of these balls with the ball at e of the
    # summed sublevels, which still reads row e
    "metric_ball reads the wrong row of the sublevel": Mutant(
        "constructions.py",
        ".sublevel(level, radius).rows[0])",
        ".sublevel(level, radius).rows[-1])",
        "test_constructions.py",
        ("verify", "tests"),
    ),
    # generated pieces and sequences are uniform, so verify never reaches
    # the refusal; the oracle comparisons of the sequence validator do
    "uniformity check skips the pairs next to the diagonal": Mutant(
        "core.py",
        "for j in bits(z >> i + 1 << i + 1):",
        "for j in bits(z >> i + 2 << i + 2):",
        "test_core.py",
        ("tests",),
    ),
    # a point glued at distance 0 to a lower one then puts a bit above the
    # lower level into the higher class, and the tower is refused; no
    # seeded tower has such a pair, but the glued-pair fixture of T5 does
    "level agreement not masked to the lower level": Mutant(
        "core.py",
        "bad = z ^ hi_z & below",
        "bad = z ^ hi_z",
        "test_core.py",
        ("verify", "tests"),
    ),
    # a top-level piece positive on a zero-pair is then refused by the
    # sequence check under its "d_n" name, not as the piece it is
    "sum_of_extensions appends a piece unchecked": Mutant(
        "limitmetric.py",
        '        tower._check_uniform(n, piece, "pseudometric")\n',
        "",
        "test_limitmetric.py",
        ("tests",),
    ),
    # a nonzero diagonal then extends over the denominator 0; no library
    # path calls extend_pseudometric, so only its tests see it
    "extension skips the pseudometric check of its input": Mutant(
        "limitmetric.py",
        "    rho.validate(k, tower.labels)\n",
        "",
        "test_limitmetric.py",
        ("tests",),
    ),
    # no check or transcript of verify composes a higher relation with a
    # lower one; the compose tests do
    "compose leaves a lower second operand unpromoted": Mutant(
        "relations.py",
        "return u, v.promote(u.level, u.size)",
        "return u, v",
        "test_relations.py",
        ("tests",),
    ),
    # every command then loads verify, generate and fixtures; the outputs
    # stay the same, so only the fresh-process module check sees it
    "cli imports the suite at load": Mutant(
        "cli.py",
        "from .topology import compare_topologies, tlim_topology, ulim_topology\n",
        "from .topology import compare_topologies, tlim_topology, ulim_topology\n"
        "from .verify import verify_suite\n",
        "test_records.py",
        ("tests",),
    ),
    # unilim.generate_instance then raises AttributeError; the library
    # imports from its modules, so only the export test sees it
    "export table points a name at the wrong module": Mutant(
        "__init__.py",
        'generate_instance",\n    "limitmetric": "GenerationVerdict ',
        '",\n    "limitmetric": "generate_instance GenerationVerdict ',
        "test_records.py",
        ("tests",),
    ),
}


def _run(argv: list[str], src: Path) -> bool:
    """Run argv with ``unilim`` imported from ``src``; True when it fails."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, timeout=TIMEOUT_S,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return True
    return proc.returncode != 0


def _fresh_src(workdir: Path, mutant: Mutant | None = None) -> Path:
    """A copy of src/ under workdir, with the mutant applied."""
    src = workdir / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        target = src / "unilim" / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.path}: {mutant.old!r} occurs {text.count(mutant.old)} times")
        target.write_text(text.replace(mutant.old, mutant.new))
    return src


def _verify(src: Path) -> bool:
    return _run([sys.executable, "-m", "unilim.cli", "verify", "--all", "--seeds", "0..20"], src)


def run_mutant(mutant: Mutant, workdir: Path) -> dict[str, bool]:
    """Run both checks on the mutated copy; returns {check: killed}."""
    src = _fresh_src(workdir, mutant)
    pytest = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    return {"verify": _verify(src), "tests": _run([*pytest, f"tests/{mutant.test_file}"], src)}


def main(argv: list[str]) -> int:
    names = argv or list(MUTANTS)
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {unknown}; known: {list(MUTANTS)}", file=sys.stderr)
        return 2
    failures, equivalent = [], 0
    with tempfile.TemporaryDirectory(prefix="unilim-mutants-") as tmp:
        workdir = Path(tmp)
        # a kill means something only if the unmutated copy passes
        if _verify(_fresh_src(workdir)):
            print("verify fails on the unmutated copy of src/", file=sys.stderr)
            return 2
        for name in names:
            mutant = MUTANTS[name]
            start = time.perf_counter()
            killed = run_mutant(mutant, workdir)
            by = ", ".join(c for c, k in killed.items() if k) or "nothing"
            took = f"tests/{mutant.test_file}; {time.perf_counter() - start:.1f} s"
            if mutant.equivalent:
                equivalent += 1
                failed = any(killed.values())
                print(f"{'KILLED' if failed else 'equivalent':10} {name}: by {by} "
                      f"({mutant.equivalent}; {took})")
            else:
                failed = any(not killed[c] for c in mutant.killers)
                print(f"{'SURVIVED' if failed else 'killed':10} {name}: by {by} "
                      f"(expected {', '.join(mutant.killers)}; {took})")
            if failed:
                failures.append(name)
    if failures:
        print(f"{len(failures)} of {len(names)} mutants survived an expected killer "
              "or were killed though marked equivalent")
        return 1
    print(f"all {len(names) - equivalent} mutants killed by their expected killers; "
          f"{equivalent} equivalent, killed by nothing")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
