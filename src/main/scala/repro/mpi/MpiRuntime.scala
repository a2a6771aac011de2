package repro.mpi

import java.util.concurrent.Phaser
import java.util.concurrent.locks.LockSupport

import scala.reflect.ClassTag

/** Thrown on ranks that were blocked in a collective when a peer failed. */
final class PeerFailedException(cause: Throwable)
    extends IllegalStateException("a peer rank failed during a collective", cause)

/** SPMD runtime simulating an MPI job over RDMA (paper §2): ranks are JVM
  * threads and RMA windows are pre-sized shared arrays with exclusive write
  * regions per sender — the same synchronization structure as
  * `MPI_Win_create` / `MPI_Put` / `MPI_Win_fence` used by the monolithic
  * join of Barthels et al. A window's element is whatever crosses the wire:
  * a primitive `Long` for radix-compressed words, a row otherwise.
  *
  * All collectives must be called by every rank in the same global order
  * (the MPI contract). They run on one `Phaser` per run: a shared exchange
  * board plus two phases per collective implements allGather, from which
  * allReduce derives. Terminating the phaser is the job abort: a failing
  * rank records its exception and terminates the phaser, which releases
  * every peer in or entering a collective with a [[PeerFailedException]].
  *
  * The runtime creates its rank contexts once; their timers and network
  * counters add up over every `run` of the runtime.
  */
final class MpiRuntime(val nRanks: Int, val cfg: NetConfig = NetConfig()) {
  require(nRanks >= 1)
  val contexts: Vector[MpiContext] = Vector.tabulate(nRanks)(r => new MpiContext(r, this))
  @volatile private var failure: Throwable = _
  @volatile private var phaser: Phaser = _
  private val board = new Array[AnyRef](nRanks)

  /** Run `body` on every rank concurrently; returns per-rank results in rank
    * order. The first rank failure is rethrown on the driver.
    */
  def run[A](body: MpiContext => A): Vector[A] = {
    val results  = new Array[Any](nRanks)
    val ph = new Phaser(nRanks)
    failure = null
    phaser = ph
    val threads = (0 until nRanks).map { r =>
      val t = new Thread(
        () =>
          try results(r) = body(contexts(r))
          catch {
            case _: PeerFailedException => () // primary failure already recorded
            case e: Throwable =>
              synchronized { if (failure == null) failure = e }
              ph.forceTermination()
          },
        s"mpi-rank-$r"
      )
      t.setDaemon(true)
      t
    }
    threads.foreach(_.start())
    threads.foreach(_.join())
    if (failure != null) throw failure
    Vector.tabulate(nRanks)(r => results(r).asInstanceOf[A])
  }

  /** `contexts` under the name perfbench reads. */
  def lastContexts: Vector[MpiContext] = contexts

  private[mpi] def sync(): Unit =
    if (phaser.arriveAndAwaitAdvance() < 0) throw new PeerFailedException(failure)

  private[mpi] def exchange[T <: AnyRef](rank: Int, v: T): Vector[T] = {
    board(rank) = v
    sync()
    val out = Vector.tabulate(nRanks)(i => board(i).asInstanceOf[T])
    sync() // board may be reused by the next collective only after all read
    out
  }
}

/** An RMA window of `A` elements: every rank's registered region, globally
  * visible. Writers copy elements into exclusive offset ranges (computed
  * from histograms), so no synchronization is needed between fences — the
  * paper's one-sided-write discipline.
  */
final class Window[A](val regions: Vector[Array[A]]) {
  def local(rank: Int): Array[A] = regions(rank)
}

/** Per-rank handle to the runtime: rank id, collectives, RMA verbs, timers
  * and network statistics.
  */
final class MpiContext(val rank: Int, val runtime: MpiRuntime) {
  val timer = new PhaseTimer
  val stats = new NetStats
  private var pendingWireNanos = 0L

  def nRanks: Int = runtime.nRanks
  def cfg: NetConfig = runtime.cfg

  def barrier(): Unit = runtime.sync()

  /** MPI_Allgather of one reference per rank. */
  def allGather[T <: AnyRef](v: T): Vector[T] = runtime.exchange(rank, v)

  /** MPI_Allreduce(SUM) over a long vector (the paper's global-histogram
    * primitive). Every rank receives the element-wise sum.
    */
  def allReduceSum(a: Array[Long]): Array[Long] = {
    val all = allGather(a)
    val out = new Array[Long](a.length)
    all.foreach { v =>
      var i = 0
      while (i < v.length) { out(i) += v(i); i += 1 }
    }
    out
  }

  /** Collective window creation (MPI_Win_create): every rank registers a
    * region of `localLen` elements; all regions become globally addressable.
    */
  def winCreate[A: ClassTag](localLen: Int): Window[A] =
    new Window(allGather(new Array[A](localLen)))

  /** One-sided write of `len` elements from `batch` into `target`'s region
    * at `offset`. `bytes` is the modeled wire size of the batch;
    * cross-machine transfers accumulate simulated wire time, paid at the
    * next fence.
    */
  def put[A](win: Window[A], target: Int, offset: Int, batch: Array[A], len: Int, bytes: Long): Unit = {
    System.arraycopy(batch, 0, win.regions(target), offset, len)
    stats.msgs += 1
    if (cfg.machineOf(target) != cfg.machineOf(rank)) {
      stats.bytesCross += bytes
      val nanos = (bytes * 1e9 / cfg.crossBytesPerSec).toLong + cfg.msgLatencyNanos
      pendingWireNanos += nanos
      stats.simulatedWireNanos += nanos
    } else stats.bytesLocal += bytes
  }

  /** MPI_Win_fence: pays accumulated simulated wire time, then synchronizes
    * the RMA epoch (all outstanding puts complete at all ranks).
    */
  def fence(win: Window[_]): Unit = {
    if (pendingWireNanos > 0) {
      // parkNanos may return early (a stale permit, a spurious wake-up)
      val deadline = System.nanoTime() + pendingWireNanos
      var left = pendingWireNanos
      while (left > 0) {
        LockSupport.parkNanos(left)
        left = deadline - System.nanoTime()
      }
      pendingWireNanos = 0
    }
    runtime.sync()
  }
}
