"""The reference run: a fixed pure-Python loop that gauges the host's speed.

    python3 perfbench/reference.py

run.py starts it in a fresh interpreter before and after every timed
operation and divides each operation's time by the mean of the two reference
runs around it, so that a host whose speed drifts from second to second
slows both sides of the ratio alike.  It imports nothing from semsize: no
change to the package can move it.  Changing this file rescales every
end-to-end timing, so it must stay as it is.
"""

LOOPS = 120_000


def spin(n: int) -> int:
    """Integer bit arithmetic, dict updates and short lists, like the package."""
    counts = {}
    acc = 0
    for i in range(n):
        m = (i * 2654435761) & 0xFFF
        acc ^= (m << 3) | (m >> 2)
        counts[m] = counts.get(m, 0) + 1
        if bin(m).count("1") & 1:
            acc += len([x for x in (m, acc & 7, i & 15) if x])
    return acc + len(counts)


if __name__ == "__main__":
    spin(LOOPS)
