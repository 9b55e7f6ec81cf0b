"""The engine's observable output on the ``output_hash`` inputs is pinned.

``output_hash.py`` hashes trace lines, fresh names, results and legs of a
fixed set of saturations, rules and proof steps.  A change that claims to
keep them byte-identical keeps this digest; a change that means to alter
them updates it here and quotes both values.
"""

import hashlib

import output_hash

DIGEST = "b123e86c883557eba9b1f279b381b9f13be44244fc17572619fd778bf006d4e8"
SIZE = 7226541


def test_output_digest_is_unchanged():
    data = "\n".join(output_hash.lines()).encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (DIGEST, SIZE)
