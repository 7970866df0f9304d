"""The clan pipeline: statistical base -> cone -> double -> Kahler form.

The rank two triangular clan carries a statistical structure of
constant curvature -1.  Extending by a radiant direction gives a flat
torsion free cone; doubling the cone gives a six dimensional algebra
whose pairing form at t = 1 is closed and positive.  Everything is a
rational number, so every printed identity is exact.
"""

from liegeom import (ce_d, cone_extend, get_example, jacobi_check, lck_family,
                     nijenhuis)


def main():
    entry = get_example("clan-triangular")
    print("base:", ", ".join(entry.algebra.basis_labels),
          "  curvature:", entry.curvature)

    ext = cone_extend(entry.algebra, entry.connection, entry.metric)
    print("cone basis:", ", ".join(ext.algebra.basis_labels))
    print("cone flat:", ext.report.is_flat,
          " torsion free:", ext.report.is_torsion_free)

    fam = lck_family(entry.algebra, entry.connection, entry.metric,
                     c=-1, t=1)
    dbl = fam.double
    print("double basis:", ", ".join(dbl.algebra.basis_labels))
    print("jacobi violation:", jacobi_check(dbl.algebra))
    print("nijenhuis zero:",
          nijenhuis(dbl.algebra, dbl.complex_structure).is_zero())

    print("omega_1 components:")
    for idx, value in fam.omega.components():
        names = "^".join(dbl.algebra.basis_labels[i] for i in idx)
        print(f"  {value} * {names}")
    print("d omega_1 zero:", ce_d(dbl.algebra, fam.omega).is_zero())
    print("kahler:", fam.report.is_kahler)


if __name__ == "__main__":
    main()
