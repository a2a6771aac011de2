package repro.mpi

import org.scalatest.funsuite.AnyFunSuite
import java.util.concurrent.locks.LockSupport
import scala.collection.mutable.ArrayBuffer
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration._

import repro.core._

class MpiRuntimeSpec extends AnyFunSuite {

  test("run returns per-rank results in rank order") {
    val rt = new MpiRuntime(4)
    assert(rt.run(ctx => ctx.rank * 10) == Vector(0, 10, 20, 30))
  }

  test("barrier synchronizes all ranks") {
    val rt = new MpiRuntime(4)
    val flags = new java.util.concurrent.atomic.AtomicInteger(0)
    val results = rt.run { ctx =>
      flags.incrementAndGet()
      ctx.barrier()
      flags.get() // after barrier every rank must see all increments
    }
    assert(results.forall(_ == 4))
  }

  test("allGather returns every rank's contribution in rank order") {
    val rt = new MpiRuntime(3)
    val results = rt.run(ctx => ctx.allGather(java.lang.Integer.valueOf(ctx.rank)))
    results.foreach(v => assert(v.map(_.intValue) == Vector(0, 1, 2)))
  }

  test("repeated collectives do not interfere") {
    val rt = new MpiRuntime(3)
    val results = rt.run { ctx =>
      val a = ctx.allGather(java.lang.Integer.valueOf(ctx.rank))
      val b = ctx.allGather(java.lang.Integer.valueOf(ctx.rank + 100))
      (a.map(_.intValue), b.map(_.intValue))
    }
    results.foreach { case (a, b) =>
      assert(a == Vector(0, 1, 2))
      assert(b == Vector(100, 101, 102))
    }
  }

  test("allReduceSum sums element-wise on every rank") {
    val rt = new MpiRuntime(4)
    val results = rt.run(ctx => ctx.allReduceSum(Array(1L, ctx.rank.toLong)))
    results.foreach(v => assert(v.toSeq == Seq(4L, 6L)))
  }

  test("windows: puts to exclusive offsets are visible after fence") {
    val n = 4
    val rt = new MpiRuntime(n)
    val results = rt.run { ctx =>
      val win = ctx.winCreate[Array[Any]](n) // each rank receives one row from each rank
      val batch = Array(Array[Any](ctx.rank.toLong))
      var target = 0
      while (target < n) {
        ctx.put(win, target, ctx.rank, batch, 1, 8)
        target += 1
      }
      ctx.fence(win)
      win.local(ctx.rank).map(_(0).asInstanceOf[Long]).toSeq
    }
    results.foreach(v => assert(v == Seq(0L, 1L, 2L, 3L)))
  }

  test("network stats: cross-machine vs local byte accounting") {
    val cfg = NetConfig(ranksPerMachine = 2, crossBytesPerSec = Long.MaxValue, msgLatencyNanos = 0)
    val rt = new MpiRuntime(4, cfg)
    rt.run { ctx =>
      val win = ctx.winCreate[Array[Any]](4)
      val batch = Array(Array[Any](0L))
      var t = 0
      while (t < 4) { ctx.put(win, t, ctx.rank, batch, 1, 100); t += 1 }
      ctx.fence(win)
    }
    val stats = rt.contexts.map(_.stats)
    // 4 ranks on 2 machines: each rank sends 2 local (same machine) + 2 cross.
    stats.foreach { s =>
      assert(s.bytesLocal == 200)
      assert(s.bytesCross == 200)
      assert(s.msgs == 4)
    }
  }

  test("machineOf groups ranks") {
    val cfg = NetConfig(ranksPerMachine = 2)
    assert(Seq(0, 1, 2, 3).map(cfg.machineOf) == Seq(0, 0, 1, 1))
  }

  test("rank failure propagates to the driver and releases peers") {
    val rt = new MpiRuntime(3)
    val e = intercept[Throwable] {
      rt.run { ctx =>
        if (ctx.rank == 1) throw new RuntimeException("rank 1 died")
        ctx.barrier()
      }
    }
    def causes(t: Throwable): Seq[Throwable] =
      Seq(t) ++ Option(t.getCause).toSeq.flatMap(causes)
    assert(causes(e).exists(_.getMessage != null) )
  }

  /** `f` on another thread, failing the test if it has not ended in 20 s. */
  private def within[A](f: => A): A =
    Await.result(Future(f)(ExecutionContext.global), 20.seconds)

  test("a rank failing while peers wait in fence and allGather aborts every rank") {
    val boom = new RuntimeException("rank 0 died")
    val rt = new MpiRuntime(3)
    val e = within(intercept[RuntimeException](rt.run { ctx =>
      val win = ctx.winCreate[Array[Any]](1)
      ctx.rank match {
        case 0 => Thread.sleep(50); throw boom
        case 1 => ctx.fence(win)
        case _ => ctx.allGather(Array(1L))
      }
    }))
    assert(e eq boom)
  }

  test("a runtime runs a successful job after a failed one") {
    val rt = new MpiRuntime(3)
    within(intercept[RuntimeException](rt.run { ctx =>
      if (ctx.rank == 2) throw new RuntimeException("first job fails")
      ctx.barrier()
    }))
    val sums = within(rt.run { ctx =>
      ctx.barrier()
      ctx.allReduceSum(Array(ctx.rank.toLong))(0)
    })
    assert(sums == Vector(3L, 3L, 3L))
  }

  test("an exception in an MpiExecutor rank plan surfaces from open() unchanged") {
    val boom = new IllegalStateException("plan failed on rank 1")
    val inT = TupleType.of("x" -> Atom.LongA)
    val exec = new MpiExecutor(
      new VectorSource(ArrayBuffer(Array[Any](1L), Array[Any](2L)), inT), 2, NetConfig(),
      (slot, ctx) => new MapOp(new ParameterLookup(slot), t => {
        if (ctx.rank == 1) throw boom
        Array[Any](ctx.allReduceSum(Array(t(0).asInstanceOf[Long]))(0))
      }, inT))
    val e = within(intercept[IllegalStateException](exec.open()))
    assert(e eq boom)
  }

  test("single-rank runtime works without peers") {
    val rt = new MpiRuntime(1)
    val r = rt.run { ctx =>
      val win = ctx.winCreate[Array[Any]](1)
      ctx.put(win, 0, 0, Array(Array[Any](42L)), 1, 8)
      ctx.fence(win)
      ctx.allReduceSum(Array(5L)).toSeq
    }
    assert(r == Vector(Seq(5L)))
  }

  test("PhaseTimer accumulates and RunReport takes the slowest rank per phase") {
    val t1 = new PhaseTimer; val t2 = new PhaseTimer
    t1.time(Phase.localHistogram)(Thread.sleep(2))
    val once = t1.nanos(Phase.localHistogram)
    t1.time(Phase.localHistogram)(Thread.sleep(2))
    assert(once >= 2_000_000L && t1.nanos(Phase.localHistogram) >= once + 2_000_000L)
    t2.time(Phase.localHistogram)(Thread.sleep(5)); t2.time(Phase.globalHistogram)(Thread.sleep(1))
    val r = RunReport(Vector(t1, t2), Vector(new NetStats, new NetStats))
    assert(r.slowestNanos(Phase.localHistogram) ==
      math.max(t1.nanos(Phase.localHistogram), t2.nanos(Phase.localHistogram)))
    assert(r.slowestNanos(Phase.globalHistogram) == t2.nanos(Phase.globalHistogram))
    assert(r.slowestNanos(Phase.aggregate) == 0)
  }

  test("RunReport's busiest rank has the largest sum of phases, not the sum of the maxima") {
    val t1 = new PhaseTimer; val t2 = new PhaseTimer
    t1.time(Phase.localHistogram)(Thread.sleep(20))
    t2.time(Phase.buildProbe)(Thread.sleep(5)); t2.time(Phase.aggregate)(Thread.sleep(5))
    val sum1 = t1.nanos(Phase.localHistogram)
    val sum2 = t2.nanos(Phase.buildProbe) + t2.nanos(Phase.aggregate)
    val r = RunReport(Vector(t1, t2), Vector(new NetStats, new NetStats))
    assert(r.busiestRankNanos == math.max(sum1, sum2))
    assert(r.busiestRankNanos < Phase.values.toSeq.map(r.slowestNanos).sum)
  }

  test("RunReport totals the bytes every rank put, within and across machines") {
    val s1 = new NetStats; val s2 = new NetStats
    s1.bytesCross = 10; s1.bytesLocal = 5
    s2.bytesCross = 7
    assert(RunReport(Vector(new PhaseTimer, new PhaseTimer), Vector(s1, s2)).bytesPut == 22)
  }

  test("a fence pays the whole charged wire time even if the rank holds a park permit") {
    val cfg = NetConfig(ranksPerMachine = 1, crossBytesPerSec = 1_000_000L, msgLatencyNanos = 0)
    val bytes = 30_000L // 30 ms on the wire
    val rt = new MpiRuntime(2, cfg)
    val took = within(rt.run { ctx =>
      val win = ctx.winCreate[Array[Any]](1)
      ctx.put(win, 1 - ctx.rank, 0, Array(Array[Any](0L)), 1, bytes)
      LockSupport.unpark(Thread.currentThread()) // parkNanos would return at once
      val t0 = System.nanoTime()
      ctx.fence(win)
      System.nanoTime() - t0
    })
    took.foreach(t => assert(t >= 30_000_000L, s"fence took ${t / 1e6} ms of 30 ms charged"))
  }

  test("a nested PhaseTimer span pauses the enclosing one") {
    val t = new PhaseTimer
    val t0 = System.nanoTime()
    t.time(Phase.networkPartition) {
      Thread.sleep(10)
      t.time(Phase.globalHistogram)(Thread.sleep(50))
    }
    val wall = System.nanoTime() - t0
    val outer = t.nanos(Phase.networkPartition)
    val inner = t.nanos(Phase.globalHistogram)
    assert(inner >= 50_000_000L)
    assert(outer >= 10_000_000L && outer < 50_000_000L, s"outer span charged $outer ns")
    assert(outer + inner <= wall)
  }

  test("a PhaseTimer span whose body throws still closes") {
    val t = new PhaseTimer
    intercept[IllegalStateException](t.time(Phase.buildProbe) {
      Thread.sleep(5)
      throw new IllegalStateException("body failed")
    })
    val charged = t.nanos(Phase.buildProbe)
    assert(charged >= 5_000_000L)
    t.time(Phase.aggregate)(Thread.sleep(5))
    assert(t.nanos(Phase.buildProbe) == charged) // the next span does not run inside it
  }

  test("PhaseTimer reads by the Phase names the benches report") {
    assert(Phase.values.toSeq.map(_.toString) == Seq("localHistogram", "globalHistogram",
      "networkPartition", "localPartition", "buildProbe", "aggregate"))
    val t = new PhaseTimer
    t.time(Phase.localPartition)(Thread.sleep(1))
    t.time(Phase.buildProbe)(Thread.sleep(1))
    assert(t.phases == Vector("localPartition", "buildProbe"))
    assert(t.nanos("buildProbe") == t.nanos(Phase.buildProbe))
    assert(t.snapshot == Map("localPartition" -> t.nanos(Phase.localPartition),
      "buildProbe" -> t.nanos(Phase.buildProbe)))
  }

  test("simulated wire time accrues for cross-machine puts") {
    val cfg = NetConfig(ranksPerMachine = 1, crossBytesPerSec = 1_000_000L, msgLatencyNanos = 1000)
    val bytes = 1000L
    val rt = new MpiRuntime(2, cfg)
    rt.run { ctx =>
      val win = ctx.winCreate[Array[Any]](2)
      ctx.put(win, 1 - ctx.rank, ctx.rank, Array(Array[Any](0L)), 1, bytes)
      ctx.fence(win)
    }
    val expected = (bytes * 1e9 / cfg.crossBytesPerSec).toLong + cfg.msgLatencyNanos
    assert(expected == 1_001_000L)
    rt.contexts.foreach(c => assert(c.stats.simulatedWireNanos == expected))
  }
}
