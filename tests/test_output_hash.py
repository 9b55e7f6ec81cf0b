"""The engine's observable output on the ``output_hash`` inputs is pinned.

``output_hash.py`` hashes trace lines, fresh names, results and legs of a
fixed set of saturations, rules and proof steps.  A change that claims to
keep them byte-identical keeps this digest; a change that means to alter
them updates it here and quotes both values.
"""

import hashlib

import output_hash

DIGEST = "66ba7aeaa4424b5daadd5d0549306030e26328324ce60284d6e051d35c351fda"
SIZE = 7225479


def test_output_digest_is_unchanged():
    data = "\n".join(output_hash.lines()).encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (DIGEST, SIZE)
