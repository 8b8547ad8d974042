"""Seeded synthetic gate-level netlists in the structural-Verilog subset that
flow_cli --verilog reads (one module, escaped hierarchical instance names).

The benchmark owns its inputs: the same (spec, seed) always gives the same
netlist, whatever the program's own design generator does. The structure
mimics what the placement flow is sensitive to: a module tree the clustering
follows, mostly-local nets with a tail of sibling and remote connections,
acyclic logic levels between register stages (so STA finds real paths), a
few high-fanout hub nets, and one clock net over every flip-flop.
"""

import random
from dataclasses import dataclass

# (library cell, data input pins, output pin, mix weight)
GATES = (
    ("INV_X1", ("A",), "Y", 0.14), ("INV_X2", ("A",), "Y", 0.03),
    ("BUF_X1", ("A",), "Y", 0.05), ("NAND2_X1", ("A", "B"), "Y", 0.18),
    ("NAND3_X1", ("A", "B", "C"), "Y", 0.05), ("NOR2_X1", ("A", "B"), "Y", 0.10),
    ("AND2_X1", ("A", "B"), "Y", 0.09), ("OR2_X1", ("A", "B"), "Y", 0.08),
    ("XOR2_X1", ("A", "B"), "Y", 0.09), ("AOI21_X1", ("A", "B", "C"), "Y", 0.08),
    ("OAI21_X1", ("A", "B", "C"), "Y", 0.06), ("MUX2_X1", ("A", "B", "S"), "Y", 0.06),
    ("HA_X1", ("A", "B"), "S", 0.02), ("FA_X1", ("A", "B", "CI"), "S", 0.02),
)
DFF = ("DFF_X1", ("D",), "Q")
HUB = ("BUF_X4", ("A",), "Y")


# Structure shared by every netlist.
REGISTER_FRACTION = 0.22  # of each leaf module's instances
LOGIC_DEPTH = 12          # combinational levels between registers
CRITICAL_FRACTION = 0.15  # of leaf modules, whose logic is 1.6x deeper
HUB_FRACTION = 0.03       # of gates, high-fanout buffers
HUB_PICK = 0.06           # of input pins, fed by a hub of their leaf
LOCAL_FRACTION = 0.72     # of input pins, fed from inside their leaf module
SIBLING_FRACTION = 0.16   # fed by a leaf under the same top-level module
IO_PORTS = 64             # data ports, half in and half out, plus the clock


@dataclass(frozen=True)
class Spec:
    cells: int      # instance count
    depth: int      # module-tree depth
    branching: int  # children per module


class _Leaf:
    __slots__ = ("path", "top", "by_level", "hubs")

    def __init__(self, path, top, levels):
        self.path = path
        self.top = top
        self.by_level = [[] for _ in range(levels + 1)]
        self.hubs = []


def generate(spec, seed):
    """Returns the Verilog text of one netlist."""
    rng = random.Random(seed)
    leaves = []
    by_top = []

    def tree(path, depth, top):
        if depth == 0:
            leaves.append(path + (top,))
            return
        for b in range(spec.branching):
            tree(path + ("u%d" % b,), depth - 1, b if top < 0 else top)

    tree((), spec.depth, -1)

    weights = [rng.uniform(0.8, 1.2) for _ in leaves]
    total_weight = sum(weights)
    critical = set(rng.sample(range(len(leaves)),
                              round(CRITICAL_FRACTION * len(leaves))))
    gate_weights = [g[3] for g in GATES]

    # Sources are cells (index >= 0) or input ports (index < 0, ~port).
    kinds = []    # per cell: (cell tuple, leaf index, level)
    infos = []
    for li, (leaf, w) in enumerate(zip(leaves, weights)):
        *path, top = leaf
        max_level = LOGIC_DEPTH
        if li in critical:
            max_level = round(max_level * 1.6)
        info = _Leaf("/".join(path), top, max_level)
        infos.append(info)
        while len(by_top) <= top:
            by_top.append([])
        by_top[top].append(li)
        budget = max(4, round(spec.cells * w / total_weight))
        registers = max(1, round(budget * REGISTER_FRACTION))
        for i in range(budget):
            cell_id = len(kinds)
            if i < registers:
                kinds.append((DFF, li, 0))
                info.by_level[0].append(cell_id)
                continue
            level = rng.randint(1, max_level)
            if rng.random() < HUB_FRACTION:
                kinds.append((HUB, li, level))
                info.hubs.append(cell_id)
            else:
                gate = rng.choices(GATES, gate_weights)[0]
                kinds.append((gate[:3], li, level))
            info.by_level[level].append(cell_id)

    inputs = IO_PORTS // 2
    for p in range(inputs):
        rng.choice(infos).by_level[0].append(~p)

    net_of = {}  # source -> net name

    def net(source):
        name = net_of.get(source)
        if name is None:
            name = "in%d" % ~source if source < 0 else "n%d" % len(net_of)
            net_of[source] = name
        return name

    def level_of(source):
        return 0 if source < 0 else kinds[source][2]

    def pick(info, limit):
        """A source of `info` below level `limit`, biased to deep levels and
        to sources with no net yet; None when the leaf has none."""
        limit = min(limit, len(info.by_level))
        if limit <= 0:
            return None
        for attempt in range(4):
            level = limit - 1 if rng.random() < 0.5 else rng.randrange(limit)
            bucket = info.by_level[level]
            if not bucket:
                continue
            choice = rng.choice(bucket)
            if attempt < 2 and choice in net_of:
                continue
            return choice
        for level in range(limit - 1, -1, -1):
            if info.by_level[level]:
                return rng.choice(info.by_level[level])
        return None

    unbounded = 1 << 20
    pins = []  # per cell: list of (pin, net)
    for cell_id, ((_, data_pins, _), li, level) in enumerate(kinds):
        local = infos[li]
        sequential = level == 0
        limit = unbounded if sequential else level
        connections = []
        for pin in data_pins:
            source = None
            u = rng.random()
            if u < HUB_PICK and local.hubs:
                hub = rng.choice(local.hubs)
                if sequential or level_of(hub) < limit:
                    source = hub
            if source is None:
                if u < LOCAL_FRACTION:
                    source = pick(local, limit)
                elif u < LOCAL_FRACTION + SIBLING_FRACTION:
                    source = pick(infos[rng.choice(by_top[local.top])], limit)
                else:
                    # Remote nets tap registers or shallow logic only, which
                    # keeps the level order acyclic across modules.
                    remote = rng.choice(infos)
                    source = pick(remote, unbounded if sequential else min(limit, 2))
            if source is None:
                source = pick(local, limit)
            if source is None:
                source = ~rng.randrange(inputs)
            connections.append((pin, net(source)))
        pins.append(connections)

    outputs = IO_PORTS - inputs
    assigns = []
    for p in range(outputs):
        source = None
        while source is None:
            source = pick(rng.choice(infos), unbounded)
        assigns.append(("out%d" % p, net(source)))

    # Output pins of cells whose result is used.
    for source, net_name in net_of.items():
        if source >= 0:
            pins[source].append((kinds[source][0][2], net_name))
    for cell_id, ((cell, _, _), _, _) in enumerate(kinds):
        if cell == DFF[0]:
            pins[cell_id].append(("CK", "clk"))

    ports = ["in%d" % p for p in range(inputs)]
    ports += ["out%d" % p for p in range(outputs)] + ["clk"]
    out = ["module bench (%s);" % ", ".join(ports)]
    out += ["  input in%d;" % p for p in range(inputs)]
    out += ["  output out%d;" % p for p in range(outputs)]
    out.append("  input clk;")
    out += ["  wire %s;" % n for s, n in net_of.items() if s >= 0]
    out += ["  assign %s = %s;" % a for a in assigns]
    for cell_id, ((cell, _, _), li, _) in enumerate(kinds):
        path = infos[li].path
        conns = ", ".join(".%s(%s)" % c for c in pins[cell_id])
        out.append("  %s \\%s/g%d (%s);" % (cell, path, cell_id, conns))
    out.append("endmodule")
    return "\n".join(out) + "\n"
