PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint test verify fuzz fuzz-array fuzz-functional bench eval serve fleet all

lint:
	$(PYTHON) -m repro.analysis

test:
	$(PYTHON) -m pytest -q tests/

verify:
	$(PYTHON) -m repro.verify diff

fuzz:
	$(PYTHON) -m repro.verify fuzz --seed 0 --budget 200

fuzz-array:
	$(PYTHON) -m repro.verify fuzz --seed 1 --budget 1000 --engine array

fuzz-functional:
	$(PYTHON) -m repro.verify fuzz --seed 2 --budget 3000 --engine functional

bench:
	$(PYTHON) perfbench/run.py

eval:
	$(PYTHON) -m repro.eval

serve:
	$(PYTHON) -m repro.serve --workload alexnet --rate 200 \
		--policy dynamic --slo-ms 50

fleet:
	$(PYTHON) -m repro.fleet --capacity

all: lint test
