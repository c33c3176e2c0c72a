"""Task-oriented compression and redundancy-aware messaging for
multi-agent grid perception.

The package has two halves that check each other:

* a theory half (:mod:`pragcomm.infotheory`, :mod:`pragcomm.bayes_risk`,
  :mod:`pragcomm.rd_oracle`, :mod:`pragcomm.verify`) computing and checking
  exact quantities on small finite distributions, and
* a systems half (:mod:`pragcomm.vq`, :mod:`pragcomm.entropy_coder`,
  :mod:`pragcomm.mi_estimator`, :mod:`pragcomm.simworld`, :mod:`pragcomm.planes`,
  :mod:`pragcomm.pipeline`) running the communication stack on synthetic worlds.

The CLI in :mod:`pragcomm.cli` wires config files to both halves, whose files
:mod:`pragcomm.textio` reads and writes.
"""

__version__ = "0.1.0"
