"""Exact classification of spherical tetrahedra with rational dihedral
angles and rational volume.

Everything numeric is decided exactly: angles are rational multiples of
pi, cosines live in cyclotomic fields, volumes are rational multiples
of pi^2, and every inequality is proven: by a float sum only where a
proven error bound excludes zero, else by an exact integer enclosure
(the cyclotomic core, and certify's link geometry).

The package namespace holds only __version__: import each name from
its module (sphertet.angles, .geometry, .families, .certify, ...), so
that importing one module loads only what it uses.
"""

__version__ = "0.1.0"
