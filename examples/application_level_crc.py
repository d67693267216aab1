#!/usr/bin/env python3
"""Stacking an application-level CRC on top of the link CRC.

Run:  python examples/application_level_crc.py

Stone & Partridge (cited in the paper's §4.4) urged applications to
run their own end-to-end check because link CRCs are exercised far
more often than BER folklore predicts.  The paper offers its
polynomials for that role.  Two practical questions follow:

1. *Which polynomial should the app layer pick?*  Not the link's own:
   an error pattern invisible to one 802.3 CRC is invisible to a
   second 802.3 CRC by definition.  The joint detector is the
   combined (lcm) generator -- same polynomial twice buys 0 extra
   bits; a coprime pair buys a full 64-bit effective check.
2. *How strong is the stack?*  The joint HD of the combined generator,
   computed here exactly (or as a verified lower bound when the joint
   HD outruns what is exactly computable).
"""

from repro import CrcSession, koopman_to_full
from repro.crc.stream import crc_combine
from repro.crc.catalog import get_spec
from repro.crc.engine import crc_bitwise
from repro.network.stacked import same_poly_pitfall, stacked_hd

G_LINK = koopman_to_full(0x82608EDB)    # the deployed Ethernet CRC
G_APP = koopman_to_full(0xBA0DC66B)     # the paper's proposal


def main() -> None:
    n = 1000  # a 125-byte application record

    print("Pitfall: reusing the link polynomial at the app layer\n")
    print(f"  same_poly_pitfall(802.3, {n} bits): "
          f"{same_poly_pitfall(G_LINK, n)} -- zero added detection\n")

    print("Stacking 802.3 (link) with 0xBA0DC66B (application):\n")
    print(stacked_hd(G_LINK, G_APP, n).render())

    print("\nSame stack at a full MTU:\n")
    print(stacked_hd(G_LINK, G_APP, 12112).render())

    # Bonus: the streaming/combine machinery applications actually use
    # to maintain an end-to-end CRC over scattered fragments.
    spec = get_spec("CRC-32/IEEE-802.3")
    fragments = [b"fragment-one|", b"fragment-two|", b"fragment-three"]
    whole = b"".join(fragments)

    session = CrcSession(spec)
    for frag in fragments:
        session.add(frag)
    assert session.value == crc_bitwise(spec, whole)

    crc = crc_bitwise(spec, fragments[0])
    for frag in fragments[1:]:
        crc = crc_combine(spec, crc, crc_bitwise(spec, frag), len(frag))
    assert crc == crc_bitwise(spec, whole)
    print(
        "\nStreaming add() and O(log n) crc_combine() both reproduce "
        f"the one-shot CRC ({crc:#010x}) -- the plumbing an app-level "
        "check needs for scattered I/O."
    )


if __name__ == "__main__":
    main()
